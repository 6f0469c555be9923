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

``test_audit_bytes_are_pinned`` pins the audit the same way: the level-3
spec of ``election_small`` (seed 3) audited against ``cvrs_small.csv``, the
manifest and state ``audit init`` writes, then one escalating round in
which three drawn papers are misread: its state, its next manifest and its
``--format json`` stdout without the line naming the next manifest's path;
then a confirming follow-up round that reads every paper as its CVR: its
state, which records both rounds, and its ``--format json`` stdout.  These
digests fix the order of the seeded sample and every byte a round writes.

``test_report_bytes_are_pinned`` pins the other JSON documents for every
``tests/data`` election: ``tabulate --format json``'s stdout and its
``--out`` file, whose quotas are floats, and ``estimate --format json
--seed 1``'s stdout, whose margins are floats.
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
        "1877d6225553f7e982e0db72ba09242f7f9af6f0365b6586375e5a313fce90e3",
        "d7dd8ff7908dd621935f0f0133969aea23a3fb39d5dc683af4042876c1e84e81",
    ),
    "election_irv/1/1/0.02": (
        "0c0d8205bbc85fb366b0f688dc4d04946bf024c87fd8713baec4f1bf72db5c7f",
        "6a354735bdba54762a70eca0d79b642f44f0ac859aa6aad585cf189b02bddd92",
    ),
    "election_irv/1/7/0.002": (
        "472ad2cce48f12961053f0ee89dd8e4757f3a35649df730590e39950347472b6",
        "26b6c95ee029ca05bc11a2e00b2618c2193da58c5ff4b7b68047ee7cf6cf7a2f",
    ),
    "election_irv/1/7/0.02": (
        "c1fcf3f99deb2fe64beabe0e6657f1bb51ae72061f053ee09759fe69388b8367",
        "7c5c66ba28f9397001abba1dfe7261b935ba61f1cc5f0f8e2076068ce46050f4",
    ),
    "election_irv/2/1/0.002": (
        "8286f53480c24a78e73d7b50de672c28c6e57a19909001f4005d19dbfc9898a3",
        "cc85c9a4180551b187133706e6b00fd7e39fcc7f80e308fbf8f57b1eb1a57a98",
    ),
    "election_irv/2/1/0.02": (
        "0b55a6201df1f3245c8250f3a20f8740d1ae3cf3e6a2f53bceac1483d3135d1f",
        "49c84fd14952e3d4788cd3bb5cb4b4ff8266aeebd2fae03e7dfed83255475a07",
    ),
    "election_irv/2/7/0.002": (
        "8c0a43783618a1f3a10aff6dff42e1473f9374918f5edb3a8348a665e2223f68",
        "112cc4ed24bb925bcc471e4303076894ec75e2062a0514e6a5cb84c613a1b8c1",
    ),
    "election_irv/2/7/0.02": (
        "176585c69d4158f860a3b571440bd32912131e560d1ae3a9096588b78bb33b97",
        "af478ad8194e6fcc08a9e7a6e028eb502a8d84df6c078bbf48d38ba8260a699a",
    ),
    "election_irv/3/1/0.002": (
        "ea9c8f76f41a1ce59174db1f790da7ad56bfab2f5591d90f66c001acd8aff26a",
        "18d7ebed7ff6d4b046622a740337e822ad34d3b044a69d57f989fe52b1f7b05b",
    ),
    "election_irv/3/1/0.02": (
        "ea799d3bc60190120bcda4d4c3952492718983056f0868f4be1a09ad6c8d7428",
        "624146832cff690f028de419e516fc3c166ca1037a1b250a4052db3ea11c7c25",
    ),
    "election_irv/3/7/0.002": (
        "e06eb93712812eb100bf1d67d5994363c8ade1a03b5aa816ea7795470ab10dbb",
        "04cb22d7f0213f8791ed61cdd23c36251ab8253b433234857f26001a3034b76c",
    ),
    "election_irv/3/7/0.02": (
        "9b2b9c4382e88f36940b5703fbef875d38b6486cf406ed5b2478e832a713f1ae",
        "36c498e83c3b157a76192e27e6c7069aa3010f8311afa552d79c079662cf39e3",
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
        "867df5e6f3b5e347c22d3ebd465adefafa0f7e374872921ff4fe120202ec597f",
        "eb83f2736548ae3f5784b7bf05214e20be3d39318d7c2261975407288ac8aad5",
    ),
    "ten_cyclic/3/1/0.002": (
        "4050793cc97e42f152934c51547ad9c82a731d4d9657b600a0f6e92e826f13e0",
        "4148ea813da97c4110bb9f9b523ae9e2417b1ce68da3441725ed542f12a8b288",
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


# what the audit writes: name -> SHA-256
AUDIT_GOLDEN = {
    "init/manifest": "ed46e024396b0b3bce2a3fa67e1f4facbe9c4bc42a722ab81ab362999d98b285",
    "init/state": "225145a1043c565f8a6151b3f49d23635015da00d30ec1233d26588a16736574",
    "round/state": "670f7f20458f8e2676ebc101e62fbe1ec4b23a1bf09320f067a9660e3b3c54bd",
    "round/next_manifest": "788e175bf1108190f311d738bbbc497f53fe20f6da0a50e5fa1f5f24f9b230d8",
    "round/stdout": "e69df73091475c1418f95e9da26870b2b9f1260e0e5cb2d5bbd51d3ae1cde482",
    "follow-up/state": "42109f338f05d0158716437b89c539fb1c4d4b165cf8920bad8edf91fa8a52a4",
    "follow-up/stdout": "5d8a4f4c47ae3170a66e663fb5c7d79c27e067578c38297bae3f44b68e00c6cf",
}

# the JSON reports: "election/command/output" -> SHA-256
REPORT_GOLDEN = {
    "election_irv/tabulate/stdout": "6cee65049f1ee0b11027bee2c77e20da3e955fa25dcc926c308306203af64ce7",
    "election_irv/estimate/stdout": "65e780680ed3c93fad09f48014d1fe306207c648a170f05fae8c7b6eeb40b757",
    "election_irv/tabulate/out": "6cee65049f1ee0b11027bee2c77e20da3e955fa25dcc926c308306203af64ce7",
    "election_plurality/tabulate/stdout": "61d1964de0abd8b5f0cc07b23011834ace7c11a0ece09ba5362223c7174f9543",
    "election_plurality/estimate/stdout": "12ef2d84c2aa3dddb58650357645e8d6292abece84c5cd50b01040222d4c1c1e",
    "election_plurality/tabulate/out": "61d1964de0abd8b5f0cc07b23011834ace7c11a0ece09ba5362223c7174f9543",
    "election_small/tabulate/stdout": "b7d1330f11195a65b7a189e92abaec87e030d51b98712db096b06048decc69d3",
    "election_small/estimate/stdout": "dbd402abd27c42ccce9f184f195c75e007697382c42a861628f901e720e57f8b",
    "election_small/tabulate/out": "b7d1330f11195a65b7a189e92abaec87e030d51b98712db096b06048decc69d3",
}

# drawn ballots whose papers the escalating round reads otherwise
MISREAD = {"b111": "Remy", "b028": "", "b065": "Quinn|Pat"}


def _audit(directory: Path) -> dict[str, str]:
    """Generate the small election's level-3 spec, ``audit init`` it, run
    one escalating round and a confirming follow-up; the SHA-256 of every
    byte they write."""
    spec, state = directory / "spec.json", directory / "state.json"
    first, second, paper = directory / "round1.csv", directory / "round2.csv", directory / "paper.csv"
    lines = []
    for row in (DATA / "cvrs_small.csv").read_text().splitlines():
        ballot = row.split(",")[0]
        lines.append(f"{ballot},{MISREAD[ballot]}" if ballot in MISREAD else row)
    paper.write_text("\n".join(lines) + "\n")
    audit = ["--spec", str(spec), "--cvrs", str(DATA / "cvrs_small.csv"), "--state", str(state)]
    digests = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["generate", "--election", str(DATA / "election_small.json"), "--level", "3",
                     "--seed", "3", "--out", str(spec)]) == 0
        assert main(["audit", "init", *audit, "--manifest", str(first)]) == 0
    digests["init/manifest"] = hashlib.sha256(first.read_bytes()).hexdigest()
    digests["init/state"] = hashlib.sha256(state.read_bytes()).hexdigest()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--format", "json", "audit", "round", *audit, "--manifest", str(first),
                     "--interpretations", str(paper), "--next-manifest", str(second)])
    assert code == 5
    report = "".join(line for line in out.getvalue().splitlines(True) if '"next_manifest":' not in line)
    digests["round/state"] = hashlib.sha256(state.read_bytes()).hexdigest()
    digests["round/next_manifest"] = hashlib.sha256(second.read_bytes()).hexdigest()
    digests["round/stdout"] = hashlib.sha256(report.encode()).hexdigest()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--format", "json", "audit", "round", *audit, "--manifest", str(second),
                     "--interpretations", str(DATA / "cvrs_small.csv")])
    assert code == 0
    digests["follow-up/state"] = hashlib.sha256(state.read_bytes()).hexdigest()
    digests["follow-up/stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


def _reports(election: str, directory: Path) -> dict[str, str]:
    """The SHA-256 of ``tabulate --format json``'s stdout and ``--out`` file
    and of ``estimate --format json --seed 1``'s stdout."""
    path, out = str(DATA / f"{election}.json"), directory / "outcome.json"
    digests = {}
    for name, argv in (("tabulate", ["tabulate", "--election", path, "--out", str(out)]),
                       ("estimate", ["estimate", "--election", path, "--seed", "1"])):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main(["--format", "json", *argv]) == 0
        digests[f"{election}/{name}/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    digests[f"{election}/tabulate/out"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", CASES, ids=lambda case: "/".join(map(str, case)))
def test_generate_bytes_are_pinned(case, tmp_path):
    assert _generate(*case, tmp_path) == GOLDEN["/".join(map(str, case))]


def test_audit_bytes_are_pinned(tmp_path):
    assert _audit(tmp_path) == AUDIT_GOLDEN


@pytest.mark.parametrize("election", ELECTIONS)
def test_report_bytes_are_pinned(election, tmp_path):
    assert _reports(election, tmp_path) == {
        name: digest for name, digest in REPORT_GOLDEN.items() if name.startswith(f"{election}/")
    }


if __name__ == "__main__":  # print the tables above for the current code
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            spec_digest, log_digest = _generate(*case, Path(scratch))
            print(f'    "{"/".join(map(str, case))}": (\n        "{spec_digest}",\n        "{log_digest}",\n    ),')
        for name, digest in _audit(Path(scratch)).items():
            print(f'    "{name}": "{digest}",')
        for election in ELECTIONS:
            for name, digest in _reports(election, Path(scratch)).items():
                print(f'    "{name}": "{digest}",')
