"""Byte-for-byte pins of the CLI's stdout and exit code, in every output format.

Each row is (command line, exit code, sha256 of stdout as UTF-8).  The digests
were recorded from the CLI before its rendering was consolidated into
``bernshift.render``; a change to any output byte of these commands fails
here.  The rows cover negative values, zero cells, fractions of 20 and more
digits, psi at the prime p = 10**18 + 3, and outputs past Python's
4300-digit int/str conversion limit.

``verify --format json`` is pinned for all twelve properties at their default
ranges, apart from its ``timing`` key, the one part that varies between runs.
Those digests were recorded while every sweep still read its values from
``Fraction`` tables and per-key binomial sums.
"""

import hashlib
import json

import pytest

from bernshift.cli import main
from bernshift.verify import PROPERTIES

GOLDEN = (
    ("value 2 2 --format plain", 0, "e1e5dfa049410510bcf55077ebf4bd5065ad4a8cee006175ca1e13331dcdcfaf"),
    ("value 2 2 --format csv", 0, "b11eb1c970789ca2fa58892c532b2f174c8fbc03f6767c96d64ec3304fb22c5c"),
    ("value 2 2 --format json", 0, "e7ea22f1305539f8bb1f138afa4061900d9f1a5451ffc2720bf19f7eeac0af13"),
    ("value 2 2 --format latex", 0, "77ed84889bf926e433a711a3232f2c9481216a9b77c5099fb167a3d51b6ab34f"),
    ("value 0 3 --format plain", 0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("value 0 3 --format csv", 0, "13bf7b3039c63bf5a50491fa3cfd8eb4e699d1ba1436315aef9cbe5711530354"),
    ("value 0 3 --format json", 0, "e77dc1fd9833e0b56203bc49d47d4145e1a8dbf6d1d58fc845a0720a63c6c775"),
    ("value 0 3 --format latex", 0, "2755a71501eb5e6db024f0d48aa2110b043fe1df09432f0c0aca548727baf620"),
    ("value 1 1 --format plain", 0, "826dba0111f40680f3a76d942186657237e9a2da9f94ced0aa528323a382d9ed"),
    ("value 1 1 --format csv", 0, "3a0b51e6da83951fd4980853cf7b0161422fdd917bc1bcd1a71cfba2914b8ea6"),
    ("value 1 1 --format json", 0, "56df9a6472c485806a304113346640c9e11d2ef82099b383534e99742edd8769"),
    ("value 1 1 --format latex", 0, "110c48ab8f5eb0fac1005cc01ba62be209d198f62e5772cc60be3efae017f136"),
    ("value 0 52 --format plain", 0, "aceff7e0e19388fd152aaf097149a7bc028223ad973de4666519958cc623fcf4"),
    ("value 0 52 --format csv", 0, "f13a6612da296c3cd66f80cd790d8abdc8c336141f63a4079b4270b36ebcf0cf"),
    ("value 0 52 --format json", 0, "744ac7a83946ac9575d0219f96ff6acd6403f407488e88d00e61c856353de333"),
    ("value 0 52 --format latex", 0, "2ff02b58ea1502c3e81d2e51b1b1451184b237eafd9bd6a3991998766a779ad9"),
    ("value 30 30 --format plain", 0, "275135ce4ab71dfedf4820afbcf10a43d7a4e2916ad06e1c9cd00a77cc298fde"),
    ("value 30 30 --format csv", 0, "3c873d06a52d3d3dfc2cbbc3b8eb37f0d71b012c29d5a79b4a7af6a60c1700b5"),
    ("value 30 30 --format json", 0, "1d7715d470e06abba19397e3efaf3a5c564689055e7ae1e8f2db06f1365ad5f1"),
    ("value 30 30 --format latex", 0, "e82dac954a986e65d2cadecbaa49cea6627d57de0e8dcb3f5e316682b22bfe14"),
    ("value 1 0 --poly --format plain", 0, "0e7c5d918e5ebf7b4b8a7a7dbc88b78b0765d70e760d7271cfea9111ee01ab5e"),
    ("value 1 0 --poly --format csv", 0, "86b4b94ac17ce2931de6d43b26e8878cbfe7ac7b83dbd54a7591afb30994008d"),
    ("value 1 0 --poly --format json", 0, "2f9b1df132eab656129dc14e11e1d4b66e25b6b2e468efe8dfa210cd5f4adcf7"),
    ("value 1 0 --poly --format latex", 0, "f88471e2ad2a18decfb95c5c368dce040be7b807bbbea5d285dc2dcf023adc79"),
    ("value 9 8 --poly --format plain", 0, "dc04035d8ae3f1279c8646a98c2d46d3d0708cc7bdc2a937cc332b981d3060f0"),
    ("value 9 8 --poly --format csv", 0, "c8f5909cbcc8cd2d2c972afeb18ab391e63aa46c257a274263df64fa310c5bdb"),
    ("value 9 8 --poly --format json", 0, "d1e1f90493644f0d2278e4918879a2e70006d6059a25570eb13c67fefa23e00f"),
    ("value 9 8 --poly --format latex", 0, "39e56ee034ac4ad1995df68add6316d41b25fb8304b00bf2731f1b971ca321b2"),
    ("table 0 3 --format plain", 0, "9734bb0416c164d650893483b61cf2e094f2ec4b671502740581117a33f07859"),
    ("table 0 3 --format csv", 0, "d5c37dff14002bfd6f786544c52b69216d57fb0b1c942d37b43e0ec57f32f39f"),
    ("table 0 3 --format json", 0, "94c43c74a17d11f42ce898b3e55df5577d3e7e6abea61ddb42d12914f6509ace"),
    ("table 0 3 --format latex", 0, "27f4fde3154ef6b62f2ba94efaf127568ed4a7334aee54344e962ac31f312b42"),
    ("table 12 12 --format plain", 0, "266d434d04f0757476feada126417994f3e7241b4d835e8b9c06c49689f79ce9"),
    ("table 12 12 --format csv", 0, "23ccab836f65eacf8e2a16a16280d8415b406a2dc0e4348b4d3ef4142df4adca"),
    ("table 12 12 --format json", 0, "2a445651a50c9d248d38a053992fd539e3aa306796560ecbe49822eb386ebdaa"),
    ("table 12 12 --format latex", 0, "0b0875d4000719c3cb82eb4d1aa4fbf04b36c7807bd5ae70efcffe012bec8474"),
    ("table 12 12 --denoms --format plain", 0, "da993c00233423acb2d29c5b29177c40063504f398fd5ae6be3d873e9df600f0"),
    ("table 12 12 --denoms --format csv", 0, "2f300e7ee3cf962773cc6bd21517671b9882dabf3d395460e30bc53ed6fb8ef6"),
    ("table 12 12 --denoms --format json", 0, "88ab80e290c1339bb76c3d8e82d13591cec7250fca6891239d1d5fd4a84e561e"),
    ("table 12 12 --denoms --format latex", 0, "d8801d64d9289db3a1060e5513363cc59f9ea0f73815fece0580ad5548b63fbe"),
    ("psi 2 2 5 --format plain", 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("psi 2 2 5 --format csv", 0, "f1b2f662800122bed0ff255693df89c4487fbdcf453d3524a42d4ec20c3d9c04"),
    ("psi 2 2 5 --format json", 0, "b8884539174e1291acbcc562ff986ce6b7e5ad6cc74a4f979e4fd50568f8cbb5"),
    ("psi 2 2 5 --format latex", 0, "06399b9faa85a6e8bc8febe1ef72bee73aea9429b66cb81b1ba54e4fdbd4a0ac"),
    ("psi 200 200 2 --format plain", 0, "b91949d67f9da028053ad81e366b7bc5076bef3d3169fe98cc2b7e068b8b3bf1"),
    ("psi 200 200 2 --format csv", 0, "a59c07ef88fe69f3cdd5e6585ed2b7f6f91a75d001d6317892d3a22b8dc0bc8c"),
    ("psi 200 200 2 --format json", 0, "34e09caa1f652095f6312c37744565b8bd0267f1341dd7d5f915df8a21d03ebc"),
    ("psi 200 200 2 --format latex", 0, "b4350ec3c423651758de4dbb356af6410fe9c0cd8a28cf73f2dcd1855275d521"),
    ("psi 3 3 1000000000000000003 --format plain", 0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("psi 3 3 1000000000000000003 --format csv", 0, "13bf7b3039c63bf5a50491fa3cfd8eb4e699d1ba1436315aef9cbe5711530354"),
    ("psi 3 3 1000000000000000003 --format json", 0, "5d45c514d98c2797f39bab5069e92f5b5658aa471b425fd3b725f3743c1be216"),
    ("psi 3 3 1000000000000000003 --format latex", 0, "2755a71501eb5e6db024f0d48aa2110b043fe1df09432f0c0aca548727baf620"),
    ("psi 3 3 5 --show-indices --format plain", 0, "20048fbec41565957b76fc9817a69763b2126af9160a6ab2b58b4f68e5776cf3"),
    ("psi 3 3 5 --show-indices --format csv", 0, "24ba1e99dc06b19351323aae0d7370243d586475a634b7f6ff7927fbc72cfaed"),
    ("psi 3 3 5 --show-indices --format json", 0, "5d2b38c9366b009ef42601409d0e7feb84d2d4fc7899a464709cbe9f82cc46c7"),
    ("psi 3 3 5 --show-indices --format latex", 0, "e9dd27b3106a118bd74e42874a9479430e95c4b5dee801b4b86042aaaf507868"),
    ("psi 2 2 11 --show-indices --format plain", 0, "cdc9f47cca14d65f56d3a43a6ae56455a4f4ee5a3ba2b42d2d82b2b6de91909f"),
    ("psi 2 2 11 --show-indices --format csv", 0, "13bf7b3039c63bf5a50491fa3cfd8eb4e699d1ba1436315aef9cbe5711530354"),
    ("psi 2 2 11 --show-indices --format json", 0, "339c34cb20b050310af22a3cd60d0193391461e4fb9994f0ed33fdda07a3b390"),
    ("psi 2 2 11 --show-indices --format latex", 0, "2755a71501eb5e6db024f0d48aa2110b043fe1df09432f0c0aca548727baf620"),
    ("denom 8 8 --format plain", 0, "4b568ae9427028dd7a47b02774bb87d848627be69fc827a4f0257b707320d47d"),
    ("denom 8 8 --format csv", 0, "89ad3cf7ec8bf065410f7afb2c08014ec7f29cd8f90148e8115c445e7613a6f2"),
    ("denom 8 8 --format json", 0, "6107852437cd2017a2690f4da78b77cb586b075a2db14cb0dc3dbb73bb69bde4"),
    ("denom 8 8 --format latex", 0, "462f78098a12dca2c3c9635f189e97afd92cc067d8d4edffaa67d91d79f814f3"),
    ("denom 0 7 --format plain", 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("denom 0 7 --format csv", 0, "f1b2f662800122bed0ff255693df89c4487fbdcf453d3524a42d4ec20c3d9c04"),
    ("denom 0 7 --format json", 0, "12c74ad4bf988ef0fa4094101b766747d9da84ddf275f83b76c903d1df1774eb"),
    ("denom 0 7 --format latex", 0, "06399b9faa85a6e8bc8febe1ef72bee73aea9429b66cb81b1ba54e4fdbd4a0ac"),
    ("denom 8 8 --factor --format plain", 0, "b03b2e3438348f5d9eb7e2be43ba4308ed433b3072901a1d414bd291be598db9"),
    ("denom 8 8 --factor --format csv", 0, "89ad3cf7ec8bf065410f7afb2c08014ec7f29cd8f90148e8115c445e7613a6f2"),
    ("denom 8 8 --factor --format json", 0, "6107852437cd2017a2690f4da78b77cb586b075a2db14cb0dc3dbb73bb69bde4"),
    ("denom 8 8 --factor --format latex", 0, "462f78098a12dca2c3c9635f189e97afd92cc067d8d4edffaa67d91d79f814f3"),
    ("denom 1 2 --factor --format plain", 0, "3f19e2489add174048e44da08144d6927e99a6896e71945e0b67199e461eb14a"),
    ("denom 1 2 --factor --format csv", 0, "92961e9752250efa971147344b22295db32d7b75e940e0971e5fb34f21d0bc67"),
    ("denom 1 2 --factor --format json", 0, "99719f67a3f07e817c904e29e08a48dd704d9db7d2bfa4c8e2e5396816d5958f"),
    ("denom 1 2 --factor --format latex", 0, "0bb343bfe1f9007da6632a256b404b99aa5d5f57d456e66b27e9d8a97b8d1b93"),
    # a 4,735-digit numerator, and a 165 kB factored denominator
    ("value 1000 1000 --format plain", 0, "e9be6c83592f7e5aae0b1390ec1e4f35830e442773a9be9ad16e084298fc91b1"),
    ("value 1000 1000 --format json", 0, "ef1ca7044e0fed147273d24c9046cf2d8e021c71cc37d14afe3abbfd6c12e93f"),
    ("denom 100000 100000 --factor --format plain", 0, "d47576c388494cf78e0bf9c3e40e003b5c645dab589b1f6bb8b65b1b90f5f243"),
    ("denom 100000 100000 --format json", 0, "44c183f0bb5a4d3bcbd61074adceb01c2214723476289d06c89736f7a6168bb2"),
)

# (property, exit code, sha256 of the JSON report without "timing", re-dumped canonically)
VERIFY_GOLDEN = (
    ("antidiagonal", 0, "e066cac9c4ab60ce99259c96190c5a62a548df56fc8a4526d0589b5f7b82797d"),
    ("denom-divisibility", 0, "e94b0685dff946dd1d81290e1749836db85a5aed0afd76aa59b1aebabcb9671b"),
    ("denominators", 0, "594af4a46e6c650625857657cbd91cf250dc2d8b57818d569a618bb7da55513b"),
    ("hermite-stern", 0, "8a068c211d70abd8c0294e91918c93076a2c5ac802fbf9992a7302f8e25723ba"),
    ("integrality", 0, "3cfed3e23fe49d58b5200a38c99e16335a80995051ff8258908f82ef35491640"),
    ("nonvanishing", 0, "59f42a2e4b6fc75f138e74360dbc0391600550be04145856cbb712803cdce1e2"),
    ("paths", 0, "935af1a383efe6148713e639967c28a4cf6c213b1937230c15dc5dd45b170525"),
    ("poly-reciprocity", 0, "d8c46055dc7ff2d4fbc0c6ce34ae29475488e4f71bc2c3a17f4deba34a76ad0b"),
    ("psi-congruences", 0, "171d9760fe0f5137a645f3937d2c1bf28a942c8cbd44acc43cbe714411b5f509"),
    ("psi-matrix", 0, "ef07b7ae13711d9dcd0073f6c63674871529e62cde781b252b4dbfb15dd65f1a"),
    ("reciprocity", 0, "27ce426b4bd77f8cd448099efae598a3e1a589290b34e909e3c4eaa02d278d42"),
    ("staudt-clausen", 0, "9562583e19af7cd0065ba462d42116d9d25df7e633472760329acb5f0c74f907"),
)


@pytest.mark.parametrize(("command", "code", "digest"), GOLDEN, ids=[row[0] for row in GOLDEN])
def test_stdout_and_exit_code_are_pinned(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_property_has_a_verify_pin():
    assert sorted(row[0] for row in VERIFY_GOLDEN) == sorted(PROPERTIES)


@pytest.mark.parametrize(("name", "code", "digest"), VERIFY_GOLDEN, ids=[row[0] for row in VERIFY_GOLDEN])
def test_verify_json_is_pinned_apart_from_timing(capsys, name, code, digest):
    assert main(["verify", name, "--format", "json"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert list(payload)[-1] == "timing"
    assert isinstance(payload.pop("timing")["wall_ms"], int)
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
