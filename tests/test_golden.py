"""Golden byte-identity test: the SHA-256 of ``generate``'s spec and proof
log for every ``tests/data`` election at levels 1-3, seeds 1 and 7 and
error rates 0.002 and 0.02, and for the ten-candidate cyclic contest
(``ten_cyclic``, the benchmark's large search) at levels 1 and 3, seed 1
and error rate 0.002.

A refactor must leave every byte of these outputs unchanged.  A change that
moves numbers on purpose (normalising margins by the upper bound, or common
random numbers in the ASN simulation) regenerates the table below with
``python tests/test_golden.py`` (run from the repository root with ``src``
on ``PYTHONPATH``) and lists the digests that changed in CHANGES.md.  A
change to the spec format alone (such as schema 2 dropping the stored upper
bound and mean) regenerates only the spec digests: the proof-log digests
stay fixed, and each new spec must equal the old one with the format change
applied.  A change to the proof log alone (such as each level's log
stating its own status) regenerates only the proof-log digests, and the
spec digests stay fixed.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from conftest import DATA, TEN_STRENGTHS, cyclic_contest
from hamilton_rla.cli import main

ELECTIONS = ("election_irv", "election_plurality", "election_small")
CASES = [
    (election, level, seed, rate)
    for election in ELECTIONS for level in (1, 2, 3) for seed in (1, 7) for rate in ("0.002", "0.02")
] + [("ten_cyclic", level, 1, "0.002") for level in (1, 3)]

# "election/level/seed/error rate": (SHA-256 of the spec, SHA-256 of the proof log)
GOLDEN = {
    "election_irv/1/1/0.002": (
        "c40da9ffd6f53df0f3ba00d1079764aa16993862b1b3d8ccfec20b1312ac03d4",
        "5315ce1662c6c591ffeb8b3efd7fada8069250f238827e260054dc19c9c127b2",
    ),
    "election_irv/1/1/0.02": (
        "9cabc8f3eb15d8cc55c7a1012f94bc84d550c5545d79c114342321019496d12f",
        "c722e196815eaf89d863807c4f133d2568dd3a84bd0a1e1b9632b8695c734975",
    ),
    "election_irv/1/7/0.002": (
        "6a970b933a2d5d84296a22ef2cad2da23b2a96f4e7b7dd2e31a3ae0488aa8268",
        "4f0456a86a07f693e3f286a8840b402c1ef28a3dbb7f76b00b3b63714a77c685",
    ),
    "election_irv/1/7/0.02": (
        "22c767d06a76b78906970642e9554a72d234de13ea57f7caf0cfa5372009a2ac",
        "02ca5344319f04b1dae41c252c492b0de2a9461ba69edfb9eb875aceb331add4",
    ),
    "election_irv/2/1/0.002": (
        "627208c99b4b713b0957eabd79e552f6741ce7885d6ff984a5e5237b2f936174",
        "30ed1d485c759eab5fbf24e09637b7024a4a32ea78777eb45fa6f1a8eef75ad4",
    ),
    "election_irv/2/1/0.02": (
        "1de28eb12b56e80d1bac1403270aa044bab6aaeb9119fdd1fd603156562ff9d9",
        "1a6a716b265c784cbdaf1146137518d462dd636aded00295118b750f869b7877",
    ),
    "election_irv/2/7/0.002": (
        "03d9aad84d4db4ed363840aff907d69b39b755a87f924c787d702e4e5ab2d808",
        "3ce7a3f9d2d2d0fdd6c780fe9cb7ec468defa4df59aee3810dcf2e31976ea2a0",
    ),
    "election_irv/2/7/0.02": (
        "5b64515b3a4bc5cf0d84d39d679420bbe92fbf09d9c083a7102732d364367153",
        "63e1749c6af9c771875761cf6536d1c1a88fc11917131abbceca84b8d88cf16b",
    ),
    "election_irv/3/1/0.002": (
        "694f13ca5227f4c72f6fda33ffa97ee2cc9f8b1f8fb5086eb985d14f4f776c77",
        "a4fc44cba4c551592667bcd4711ae5450872b91830c40b69f07bffb5ca421bb6",
    ),
    "election_irv/3/1/0.02": (
        "5c52324f5c1f4b0d8138ee691f317021f963071f744cdfbf810e2505438ed8af",
        "04d6c00aeb8084b709945bb9e6ec0ee6077b023329450caa21346a1f8fed10e1",
    ),
    "election_irv/3/7/0.002": (
        "9a2fa8195cbdd067bc71af07518df6c46d885de91de94a0fd6a9dfc9207813cd",
        "673a9b20741c4d7962595888e7c79213fffc0b87117c9b85e81033cee21ee91b",
    ),
    "election_irv/3/7/0.02": (
        "b7dd27c8db3e0200b7e6ee920fb1bd9b7fd0fc4c95a63d11fed78def7c54eaaa",
        "83819acec233c095cb2f52fa4756e6c839901b7e50f4d16387e8195efbfdcfd7",
    ),
    "election_plurality/1/1/0.002": (
        "350c3b70b7fd232e0d4183624beaec27c600a78e0dc0a5578b238868d59c4075",
        "8f94f45f9bddcf6a51714fc09cb59e1a81bc2a67b3ab42bb0bf1c79ee2a3efe5",
    ),
    "election_plurality/1/1/0.02": (
        "44eba7004aa533b298e5ec5bfd8df9c9f598abc65a90f26297969857741e0128",
        "5034bae765efb9a6dc0b033d0fb1f24c4276d941724ea5598799447dff86bf44",
    ),
    "election_plurality/1/7/0.002": (
        "ccfe2fa9516c156b631edb36a3044ed803107855edb9af44a07505c9f8b17dbf",
        "8f94f45f9bddcf6a51714fc09cb59e1a81bc2a67b3ab42bb0bf1c79ee2a3efe5",
    ),
    "election_plurality/1/7/0.02": (
        "3428b6ae239a0feee90b8253700743144496c808f6c2d7cf06a1257feaacf9a8",
        "67599616694659e87e2c78876db7dcc4dc8c5f80979613ba3719b33b4f4fe694",
    ),
    "election_plurality/2/1/0.002": (
        "059e57224cf4b6882c33d33b4f41af1dca4ff267e8a0323cf8a353d4a6a65ca0",
        "6f12c0f8c27da4cedc9c4eb980a35355963c03dfa08bbd7abf5245ee34305d8f",
    ),
    "election_plurality/2/1/0.02": (
        "667d98d846d2f58b133804dae393aaea1b78a0b2f2155af36d9452b58807a28b",
        "00ab2d6b29d277aa16e39c0ae607038754e20c4fdf9675b5c57dc7699d65dc70",
    ),
    "election_plurality/2/7/0.002": (
        "40d3a4d552dda14929c17c1db596abd6cd25c3e73e42185ca7a087e1d5c097f7",
        "6f12c0f8c27da4cedc9c4eb980a35355963c03dfa08bbd7abf5245ee34305d8f",
    ),
    "election_plurality/2/7/0.02": (
        "40cfbd6affe1c112d5a87776d6f1d7f6d1939451d7e3025450f48ccb5ca1219d",
        "23366ac3326e3970c906f3ce8549a261a0f66c41043ef7b8f5d0d7df76e477f4",
    ),
    "election_plurality/3/1/0.002": (
        "3d42c328e4aa5534cd401cec1ed12a70bc51525d6ebab0e1e78500e7d5e29e28",
        "c9e76538d02e7b1f37a86f5a1c06b1fff599e7f148ea6eaeb97d3e47bbb9f05e",
    ),
    "election_plurality/3/1/0.02": (
        "7646add5fd259ff8129187c0cdc8aa6f2792b18ac406ee30fd675beaa7495568",
        "4228679a5b4fa6f2c2e67b8d8be4584489a3077b45597b87fa7293a150da4072",
    ),
    "election_plurality/3/7/0.002": (
        "59e02100c748d2b00cf880c4646c3adab9cf27fa0b10c9cc6a4dff3c5dc0888c",
        "c9e76538d02e7b1f37a86f5a1c06b1fff599e7f148ea6eaeb97d3e47bbb9f05e",
    ),
    "election_plurality/3/7/0.02": (
        "9a70b9cc219d4ce92b1c06f100889b2f7985d33c9ceb1180ebc42474b39378c9",
        "71dbe3bf51855db9cc87422227471b4176600fe8b383169058ea3d749445c3ef",
    ),
    "election_small/1/1/0.002": (
        "8f1178c2360150694562b500ea6fbd60ed8247523bc7cd99c9b61073bb691f0c",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/1/0.02": (
        "be264859966f93f5f86df846eb65906eca7ce862c23b9585e77435e9d357f406",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/7/0.002": (
        "0aa6a8661947283dbf0f384db3997c40065edeb14fe260314cb65aef49fd7a03",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/7/0.02": (
        "2deeb046f59aefdfe60f7f54c4a42784e94f663167e938f1fb5dc6c91691d3fb",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/2/1/0.002": (
        "3007c131dc4a58f88407b57d9278753b949a7e41c935627a16496c6e25268a7d",
        "597e6303c80b8a49fa4ebc6723902073b695fa472e087bfc522c86cf1ed09005",
    ),
    "election_small/2/1/0.02": (
        "f4861f3166c3e49aa24d11ad2201b607f1027b5636bdd60c4024134f2b26f373",
        "597e6303c80b8a49fa4ebc6723902073b695fa472e087bfc522c86cf1ed09005",
    ),
    "election_small/2/7/0.002": (
        "b8010b0f0077946639fe2d9fafaa400f01bc6352c8eab22d15c5e7dfd47726a7",
        "597e6303c80b8a49fa4ebc6723902073b695fa472e087bfc522c86cf1ed09005",
    ),
    "election_small/2/7/0.02": (
        "27082b6f9069a9148fa1ca34d3236195d9afc7a86352e8513665a4c88bd8098c",
        "597e6303c80b8a49fa4ebc6723902073b695fa472e087bfc522c86cf1ed09005",
    ),
    "election_small/3/1/0.002": (
        "72e13d4effe8a7777a6b46480bc41c79d31f7e0daf676f859ef4c05258c62e48",
        "4c179227a563f18ad9023ff53907ab61bf7232033e82868ec84921e10df90f80",
    ),
    "election_small/3/1/0.02": (
        "297d1bc913fc7a42c464b88a6c4619d1b0cc9972ff129150e631c87c14f6322b",
        "4c179227a563f18ad9023ff53907ab61bf7232033e82868ec84921e10df90f80",
    ),
    "election_small/3/7/0.002": (
        "aa58cef7b074e7cffc133d10ae061d74d3e42652ba3f8be00decb12a1237b767",
        "4c179227a563f18ad9023ff53907ab61bf7232033e82868ec84921e10df90f80",
    ),
    "election_small/3/7/0.02": (
        "a4aa72f08079e07fc183ed0b0fbab4f2b16abf34c97ad1a45aa3c05e937c654a",
        "4c179227a563f18ad9023ff53907ab61bf7232033e82868ec84921e10df90f80",
    ),
    "ten_cyclic/1/1/0.002": (
        "032ff8d938b750c765db12522e318a3478bd85ea0f7558e37d02f9a872426206",
        "1b9b2ecceef1bd4432bcee8a7f26611d80d31be2567929c35b98ca26c1caf720",
    ),
    "ten_cyclic/3/1/0.002": (
        "500897d8fd4fc98de0fb1e458b1a00b28501de22980b86ea2658c4492842e873",
        "8ceece94a0f9632f4ea36a5954431f9f07009107c6c21f8e801bff824d6ed4e7",
    ),
}


def _election_file(election: str, directory: Path) -> Path:
    """A ``tests/data`` election, or ``ten_cyclic`` written to ``directory``."""
    if election != "ten_cyclic":
        return DATA / f"{election}.json"
    profile = cyclic_contest(TEN_STRENGTHS)
    path = directory / "ten_cyclic.json"
    path.write_text(json.dumps({
        "candidates": list(profile.labels),
        "threshold": str(profile.threshold),
        "delegates": profile.delegates,
        "style": profile.style,
        "ballots": [{"ranking": list(r), "count": n} for r, n in profile.rankings.items()],
    }), encoding="utf-8")
    return path


def _generate(election: str, level: int, seed: int, rate: str, directory: Path) -> tuple[str, str]:
    spec, log = directory / "spec.json", directory / "proof.log"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["generate", "--election", str(_election_file(election, directory)), "--level", str(level),
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
