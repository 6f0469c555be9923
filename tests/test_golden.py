"""Golden byte-identity test: the SHA-256 of ``generate``'s spec and proof
log for every ``tests/data`` election at levels 1-3, seeds 1 and 7 and
error rates 0.002 and 0.02.

A refactor must leave every byte of these outputs unchanged.  A change that
moves numbers on purpose (normalising margins by the upper bound, or common
random numbers in the ASN simulation) regenerates the table below with
``python tests/test_golden.py`` (run from the repository root with ``src``
on ``PYTHONPATH``) and lists the digests that changed in CHANGES.md.
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
        "d8bb2c4690a44846085015942aa8a4310b8c870c95fda2c7f5addf12ecc9ce3b",
        "38bc8734f5cbbfbffab93e82e21f9092b8b10e282d6495bde7a09f767123feef",
    ),
    "election_irv/1/1/0.02": (
        "87c77c27ee94218310039578386ef2f92933970643a89706fd35518a32b26eca",
        "44b19deebb717ea26c8bfd853c73bb04a9a3fe8d7b8620944f2a6510acf009a0",
    ),
    "election_irv/1/7/0.002": (
        "8f35b5ca7822829cc63d519f1a289b3dadd6ec6850a9d73e1a3ca0638eb37652",
        "b50171b89c6f7565c5da74b80b9ef0087bbeb697e7337803e1b7a97c8edd2cb9",
    ),
    "election_irv/1/7/0.02": (
        "f8500a73a2fde69d8541d13006121bd0f469e78259b59038dc23d9dd2bd9e9bf",
        "8d1a23fb47f3f0a2c2ebcc0c230e5d17174657c815046cd617834ef68843c2b6",
    ),
    "election_irv/2/1/0.002": (
        "20a9823565aa5bd90dee24fb14a664a66175fa63ed5c915b55ad6d0de695a2c6",
        "c114ac2f446e48b4bbbd7ed90e33ef3141e0be894bf1bcc9c93229655cc46f0f",
    ),
    "election_irv/2/1/0.02": (
        "d61f2e6742fbfb25f3d582ca5d3916531971c5658e3ad893716070a6cbe9529f",
        "892056f1884b31b20a6ca1e9493f62f2147b08da77f5c908dabd570c1c80495c",
    ),
    "election_irv/2/7/0.002": (
        "71e14478cba6c5927d6136c2ddce3dae2bc5b1a281f45d41a41bf5d17249ce34",
        "721fbbc90ac7c261cb1a91e32810fe53990e3acd45dc12be602fd1c1a81b2d3f",
    ),
    "election_irv/2/7/0.02": (
        "218bec2aaf3700fbacfbd1dff4cbfeef525bb36700ca2c90ce4bd0d11c4f6489",
        "b0d24cd6cd0b07e50ac1b87d38cb703be07f765e77f66babd78509e66faedaea",
    ),
    "election_irv/3/1/0.002": (
        "009615de4108f792c559f72abb16033a88b8038fdf2b797da2d552467fd02e33",
        "5b7377a1ead00ed3e7638450682f2de454cc9c8ad3991c322f48d48114525f87",
    ),
    "election_irv/3/1/0.02": (
        "7e7594b1f24d7edffa813769949e39ed3aacaaac97f08eafc52f669acaca3e72",
        "c26622ffe2f1b1a8418cac94d02278ba5f0799059a2edfde53e4bb447c87b3f3",
    ),
    "election_irv/3/7/0.002": (
        "3ecbf752c9350f4ab64c049557b36c50e9df3c3791569736019154b1ecffb8e4",
        "ad3e9173d6bd42f1e43a68aab05ed385c288c85c3ba924b4be64264b4e1de7ba",
    ),
    "election_irv/3/7/0.02": (
        "d76c55a793215ff18fc717b4f67854549e2b7ca8a32dc6f2dc903ea5076a68f0",
        "6d0666eb45682b6e76c3feccf9f136d89a0257d3ff60919e6b635d522933cefc",
    ),
    "election_plurality/1/1/0.002": (
        "08fa1ea6b218ed7ef2a9394ea2e40d7192b7d8a7d2d1938cec2985666870bd9e",
        "8f94f45f9bddcf6a51714fc09cb59e1a81bc2a67b3ab42bb0bf1c79ee2a3efe5",
    ),
    "election_plurality/1/1/0.02": (
        "04c77233ba00213d163153f5b5b1ae277b8a46d1ec24c4cc2465c5ee576782cd",
        "b8633ca38a5e62c08cdf4859fbf3446749397de953eb71432fa3d7ea0e7f086f",
    ),
    "election_plurality/1/7/0.002": (
        "30ff4a2b5ac4acc528d822b68090b5991250783589bb93baf508c241bf37b0ef",
        "8f94f45f9bddcf6a51714fc09cb59e1a81bc2a67b3ab42bb0bf1c79ee2a3efe5",
    ),
    "election_plurality/1/7/0.02": (
        "a2067e10f733369c0c610ac7eaf6914c527e77dcb89b42150330fa71005a1e04",
        "ffaa01b8e69700de29e2bed8d3c82bee6244cf6a8922e752d42162e494e941b0",
    ),
    "election_plurality/2/1/0.002": (
        "b607979c187773ebcd3b0fae92f927af24aedc0a378f0b0a74e88961a5f02922",
        "f6b8cd4fd1f5ada8a5b0dcf94733a938927618a58dcc3c03c9e05aba211ab739",
    ),
    "election_plurality/2/1/0.02": (
        "fc60dd3480c1c2e2786ce16c3fded7ac1c9b174a8345dd6646e8e6e8ba5acfcc",
        "2267275538b963f944605875012cff9852516fdca910c2cba6a615a1f402a23c",
    ),
    "election_plurality/2/7/0.002": (
        "7de4373287e3652779a4326fbdce31d489d5ee5b06c69de49bfc46cc43ab4212",
        "f6b8cd4fd1f5ada8a5b0dcf94733a938927618a58dcc3c03c9e05aba211ab739",
    ),
    "election_plurality/2/7/0.02": (
        "d31e4a8de9ede0bb2d4151b3d960f50ed45e7cc932af70090d483cea3a8f4659",
        "ce5a5ad6c3229d8c1b678d086d9f5f290ed4b6eca91f87cd25328cdeba10d00a",
    ),
    "election_plurality/3/1/0.002": (
        "c405ac5fe47a59db5e1e8504d7a1f9b48f5bb2d76dbe054f7e70ce7f2fed4ffe",
        "40f70e4b639516b15e698bb938198eaf62b21cdefcd5a72cac7fcbd242e374d2",
    ),
    "election_plurality/3/1/0.02": (
        "c5df3d8571b5aac1a65bdfac58d6bf5f4c7deb7ec6ad5a86283b73a76e6a18af",
        "e673f7be31b63200a690cd3cd0b8d6f1c17f694dbdbe8c234fc7f668aecb0593",
    ),
    "election_plurality/3/7/0.002": (
        "f94cdfced190848cabe467e3ad8113e24916ac901c478b8c4ce03ad3585bf075",
        "40f70e4b639516b15e698bb938198eaf62b21cdefcd5a72cac7fcbd242e374d2",
    ),
    "election_plurality/3/7/0.02": (
        "45e7b6ef636b62a71f231a68a342f8a60253e04d8fc9dee251c595d581122ba8",
        "1a88c6964059aa7a4a6df727cf9d0cb07997d5129bf6c1b43687b35cc8b41df7",
    ),
    "election_small/1/1/0.002": (
        "3ff01e73bb5ed43ccb7cdd31bf633b4188b86fb24d83e2692d5864fe92301e37",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/1/0.02": (
        "3a2a66ed6f8b0d55ef2ecd6972ffc3b0cc4120a92f85a7e0b0967a8683642dab",
        "81f7a50fbd71075abe6bda11e67605363ab337e5f70b7659866a202273e576b2",
    ),
    "election_small/1/7/0.002": (
        "c2ae092c26ee5b7409b0440df606a9f9b1b8450cb9248565d8ae9ae703343695",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/7/0.02": (
        "0cc7a51806c4499d338377ddab53e3018d6c85c7d615225af19e46ba9fab7226",
        "fa0c3d025cf544de729f7f3877ead4df9f2f53a1d81c05899b10d2b486121cd6",
    ),
    "election_small/2/1/0.002": (
        "897ab0b640a98d5bfffceac5ad7ee048c671928ce2f649ac1961ac137fe31406",
        "7908fb6875d7fcfbd12e437fe15672f001cb97d61a9dfb4211c0d8c932c11bff",
    ),
    "election_small/2/1/0.02": (
        "08582c8953331a61e5e646df8a8dcf219dacb83e21a9b04d3c1f817cf2d3100b",
        "8edb5b391129aa95b092dfb5dff1b2edb76d52732c8c5f13aeb182daf7a39090",
    ),
    "election_small/2/7/0.002": (
        "690f77c671e214de35eefe22be2c7261affe28724c74f6eb5fce81a3ce4bf78c",
        "7908fb6875d7fcfbd12e437fe15672f001cb97d61a9dfb4211c0d8c932c11bff",
    ),
    "election_small/2/7/0.02": (
        "db1d737625bf1d4ca6bb5414b8c0950ac7c6d18663f2ad8a30f037897d694c40",
        "9fb46893d6f95ba85c5b705db2c4df610df4e2eb2a24da5e04e2dfa2ea814ab6",
    ),
    "election_small/3/1/0.002": (
        "b148b39406bfcd6c4fee1687feb0cc118a538a2d51291c38073838651c487fb9",
        "de377fce6278616621de7ecf66eaf8649487af937e07ee750cacae4b7d76c615",
    ),
    "election_small/3/1/0.02": (
        "1486722210c1d390c3d5893cda301b3966586ca2e90abf67af34c4bcdb9bf6d4",
        "8f37c626e361afafaafecaf2945e904f8867fede8a4cd2daad8916f18c0183f4",
    ),
    "election_small/3/7/0.002": (
        "ec00b91aea03052dc88cdff7a7ecaff2a396b7c03e1f7b81f2f3db059297534d",
        "de377fce6278616621de7ecf66eaf8649487af937e07ee750cacae4b7d76c615",
    ),
    "election_small/3/7/0.02": (
        "976195630dd8c947021a0f1b315a16f05068cd74a8b767a90039c45a5fe80549",
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
