"""Golden byte-identity test: the SHA-256 of ``generate``'s spec and proof
log for every ``tests/data`` election at levels 1-3, seeds 1 and 7 and
error rates 0.002 and 0.02.

A refactor must leave every byte of these outputs unchanged.  A change that
moves numbers on purpose (normalising margins by the upper bound, or common
random numbers in the ASN simulation) regenerates the table below with
``python tests/test_golden.py`` (run from the repository root with ``src``
on ``PYTHONPATH``) and lists the digests that changed in CHANGES.md.  A
change to the spec format alone (such as schema 2 dropping the stored upper
bound and mean) regenerates only the spec digests: the proof-log digests
stay fixed, and each new spec must equal the old one with the format change
applied.
"""
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from conftest import DATA
from hamilton_rla.cli import main

ELECTIONS = ("election_irv", "election_plurality", "election_small")
CASES = [
    (election, level, seed, rate)
    for election in ELECTIONS for level in (1, 2, 3) for seed in (1, 7) for rate in ("0.002", "0.02")
]

# "election/level/seed/error rate": (SHA-256 of the spec, SHA-256 of the proof log)
GOLDEN = {
    "election_irv/1/1/0.002": (
        "c06ced8afd64d569747e8d4b7949ac51dff77b43b2ec3d1837b9da9e3b5d749f",
        "38bc8734f5cbbfbffab93e82e21f9092b8b10e282d6495bde7a09f767123feef",
    ),
    "election_irv/1/1/0.02": (
        "9269f600f64f454437276f8f289eb3084583326d314be06b5f9526d663793b76",
        "44b19deebb717ea26c8bfd853c73bb04a9a3fe8d7b8620944f2a6510acf009a0",
    ),
    "election_irv/1/7/0.002": (
        "81e573f2c2f81b52f7ad08423191965e06555c9997059505a7cd9617c751dce4",
        "b50171b89c6f7565c5da74b80b9ef0087bbeb697e7337803e1b7a97c8edd2cb9",
    ),
    "election_irv/1/7/0.02": (
        "e8fda7e18d829bca15a5bef361da57ee6fb4cb677ec58679ecff4627ed06337e",
        "8d1a23fb47f3f0a2c2ebcc0c230e5d17174657c815046cd617834ef68843c2b6",
    ),
    "election_irv/2/1/0.002": (
        "fae22d6cbb147ec3e6d1eb8b745ac755e5f48efee6a2872c41a8e17b1a07d891",
        "c114ac2f446e48b4bbbd7ed90e33ef3141e0be894bf1bcc9c93229655cc46f0f",
    ),
    "election_irv/2/1/0.02": (
        "ad2049a866ac09a46c81cf5ad75c0f6d5e1fca47c4aac4146807d45f2f76b117",
        "892056f1884b31b20a6ca1e9493f62f2147b08da77f5c908dabd570c1c80495c",
    ),
    "election_irv/2/7/0.002": (
        "91557b6639baaabb202fb7064dcc84e571a728ca5c9ca3b8e6f07b6e49361018",
        "721fbbc90ac7c261cb1a91e32810fe53990e3acd45dc12be602fd1c1a81b2d3f",
    ),
    "election_irv/2/7/0.02": (
        "e671cbbf0927b1c097cfb9b831655c270f3bd9aec44d8bca1c1048666468d22e",
        "b0d24cd6cd0b07e50ac1b87d38cb703be07f765e77f66babd78509e66faedaea",
    ),
    "election_irv/3/1/0.002": (
        "c32087b67b91c89e55ed96cb318c8d4e5da02eb6aaada75fe34a61b0d24813bc",
        "5b7377a1ead00ed3e7638450682f2de454cc9c8ad3991c322f48d48114525f87",
    ),
    "election_irv/3/1/0.02": (
        "5a766c4878662c32fdd13d9bcfbce53327286c2a0e2277c3c2fc4512189defb3",
        "c26622ffe2f1b1a8418cac94d02278ba5f0799059a2edfde53e4bb447c87b3f3",
    ),
    "election_irv/3/7/0.002": (
        "6595af99940ba611d6cba568019dc62ae009fba3ecb6825582ae58ed6942e98d",
        "ad3e9173d6bd42f1e43a68aab05ed385c288c85c3ba924b4be64264b4e1de7ba",
    ),
    "election_irv/3/7/0.02": (
        "1613dcae101aabc0479878bb099f02f59163ba2eb586709e230eb69c12369ac9",
        "6d0666eb45682b6e76c3feccf9f136d89a0257d3ff60919e6b635d522933cefc",
    ),
    "election_plurality/1/1/0.002": (
        "350c3b70b7fd232e0d4183624beaec27c600a78e0dc0a5578b238868d59c4075",
        "8f94f45f9bddcf6a51714fc09cb59e1a81bc2a67b3ab42bb0bf1c79ee2a3efe5",
    ),
    "election_plurality/1/1/0.02": (
        "2d85cdb009075f55fad533bb99865b32690ce222adccf32991e482cf7e64a523",
        "b8633ca38a5e62c08cdf4859fbf3446749397de953eb71432fa3d7ea0e7f086f",
    ),
    "election_plurality/1/7/0.002": (
        "ccfe2fa9516c156b631edb36a3044ed803107855edb9af44a07505c9f8b17dbf",
        "8f94f45f9bddcf6a51714fc09cb59e1a81bc2a67b3ab42bb0bf1c79ee2a3efe5",
    ),
    "election_plurality/1/7/0.02": (
        "648b716b89c274431eef30fb861145139a75182a793b4e261375b344bdb74849",
        "ffaa01b8e69700de29e2bed8d3c82bee6244cf6a8922e752d42162e494e941b0",
    ),
    "election_plurality/2/1/0.002": (
        "059e57224cf4b6882c33d33b4f41af1dca4ff267e8a0323cf8a353d4a6a65ca0",
        "f6b8cd4fd1f5ada8a5b0dcf94733a938927618a58dcc3c03c9e05aba211ab739",
    ),
    "election_plurality/2/1/0.02": (
        "d8a94e58b486681f77eb434194135552a20365ec6dbc0312d108ee2cfd5b1665",
        "2267275538b963f944605875012cff9852516fdca910c2cba6a615a1f402a23c",
    ),
    "election_plurality/2/7/0.002": (
        "40d3a4d552dda14929c17c1db596abd6cd25c3e73e42185ca7a087e1d5c097f7",
        "f6b8cd4fd1f5ada8a5b0dcf94733a938927618a58dcc3c03c9e05aba211ab739",
    ),
    "election_plurality/2/7/0.02": (
        "adb9ce29d28ad2d7c6fd62ef3e172181e0b69cec02d0f360fd5131f7bb335096",
        "ce5a5ad6c3229d8c1b678d086d9f5f290ed4b6eca91f87cd25328cdeba10d00a",
    ),
    "election_plurality/3/1/0.002": (
        "3d42c328e4aa5534cd401cec1ed12a70bc51525d6ebab0e1e78500e7d5e29e28",
        "40f70e4b639516b15e698bb938198eaf62b21cdefcd5a72cac7fcbd242e374d2",
    ),
    "election_plurality/3/1/0.02": (
        "17e4f8f9c119bfff38292e7e809a0dac9319fc9ef21b55b6105f25cef9e2a775",
        "e673f7be31b63200a690cd3cd0b8d6f1c17f694dbdbe8c234fc7f668aecb0593",
    ),
    "election_plurality/3/7/0.002": (
        "59e02100c748d2b00cf880c4646c3adab9cf27fa0b10c9cc6a4dff3c5dc0888c",
        "40f70e4b639516b15e698bb938198eaf62b21cdefcd5a72cac7fcbd242e374d2",
    ),
    "election_plurality/3/7/0.02": (
        "d6cb57a8fcd67b5eb45fb342d7c44ba526b70e390aa9da5d8450ce2f1108ed67",
        "1a88c6964059aa7a4a6df727cf9d0cb07997d5129bf6c1b43687b35cc8b41df7",
    ),
    "election_small/1/1/0.002": (
        "8f1178c2360150694562b500ea6fbd60ed8247523bc7cd99c9b61073bb691f0c",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/1/0.02": (
        "69da4b15327305faec55571076d26a09d7fc139cac006967566057a211e9899c",
        "81f7a50fbd71075abe6bda11e67605363ab337e5f70b7659866a202273e576b2",
    ),
    "election_small/1/7/0.002": (
        "0aa6a8661947283dbf0f384db3997c40065edeb14fe260314cb65aef49fd7a03",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/7/0.02": (
        "db08d3163fd1a06eab4691c0bd4b908fca848c58f07671363808439944c28497",
        "fa0c3d025cf544de729f7f3877ead4df9f2f53a1d81c05899b10d2b486121cd6",
    ),
    "election_small/2/1/0.002": (
        "3007c131dc4a58f88407b57d9278753b949a7e41c935627a16496c6e25268a7d",
        "7908fb6875d7fcfbd12e437fe15672f001cb97d61a9dfb4211c0d8c932c11bff",
    ),
    "election_small/2/1/0.02": (
        "1548677bf42f736adff0ac7ca4709fa6fde06ff94ebda1f7cf40c2796148f796",
        "8edb5b391129aa95b092dfb5dff1b2edb76d52732c8c5f13aeb182daf7a39090",
    ),
    "election_small/2/7/0.002": (
        "b8010b0f0077946639fe2d9fafaa400f01bc6352c8eab22d15c5e7dfd47726a7",
        "7908fb6875d7fcfbd12e437fe15672f001cb97d61a9dfb4211c0d8c932c11bff",
    ),
    "election_small/2/7/0.02": (
        "f6c278b618d26f220a8a0556d6357bac66d568193e1d97cf5602f69ca4f632ad",
        "9fb46893d6f95ba85c5b705db2c4df610df4e2eb2a24da5e04e2dfa2ea814ab6",
    ),
    "election_small/3/1/0.002": (
        "72e13d4effe8a7777a6b46480bc41c79d31f7e0daf676f859ef4c05258c62e48",
        "de377fce6278616621de7ecf66eaf8649487af937e07ee750cacae4b7d76c615",
    ),
    "election_small/3/1/0.02": (
        "9a6254ff001656a2ee003d061bd8cb5c791dc7fcc2dc8f21699dfdf495b9b35e",
        "8f37c626e361afafaafecaf2945e904f8867fede8a4cd2daad8916f18c0183f4",
    ),
    "election_small/3/7/0.002": (
        "aa58cef7b074e7cffc133d10ae061d74d3e42652ba3f8be00decb12a1237b767",
        "de377fce6278616621de7ecf66eaf8649487af937e07ee750cacae4b7d76c615",
    ),
    "election_small/3/7/0.02": (
        "975ef9802570f886c86e1a4f6c83b18281274d7d6dfd0f4b5eef8d31d0d72f45",
        "6dc55a8adba370f726e860cac44f66e98ce04abddea450af5d9040e90f2612aa",
    ),
}


def _generate(election: str, level: int, seed: int, rate: str, directory: Path) -> tuple[str, str]:
    spec, log = directory / "spec.json", directory / "proof.log"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["generate", "--election", str(DATA / f"{election}.json"), "--level", str(level),
                     "--seed", str(seed), "--error-rate", rate, "--out", str(spec), "--proof-log", str(log)])
    assert code == 0
    return hashlib.sha256(spec.read_bytes()).hexdigest(), hashlib.sha256(log.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=lambda case: "/".join(map(str, case)))
def test_generate_bytes_are_pinned(case, tmp_path):
    assert _generate(*case, tmp_path) == GOLDEN["/".join(map(str, case))]


if __name__ == "__main__":  # print the table above for the current code
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            spec_digest, log_digest = _generate(*case, Path(scratch))
            print(f'    "{"/".join(map(str, case))}": (\n        "{spec_digest}",\n        "{log_digest}",\n    ),')
