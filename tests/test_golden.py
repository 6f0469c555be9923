"""Golden byte-identity test: the SHA-256 of ``generate``'s spec and proof
log for every ``tests/data`` election at levels 1-3, seeds 1 and 7 and
error rates 0.002 and 0.02, and for the ten-candidate cyclic contest
(``ten_cyclic``, the benchmark's large search) at levels 1 and 3, seed 1
and error rate 0.002.  The benchmark shuffles that contest's roster, and
roster order decides ties and the order of the search's steps, so
``ten_cyclic_shuffled`` pins it at level 3 under one seeded shuffle of the
roster.  ``fourteen_cyclic``, the same ring with four more candidates,
pins the largest search the tests run at level 1.  ``deep_rankings``
(``conftest.deep_contest`` drawn with seed 1: eight candidates, 1,500
distinct rankings up to eight long and blank ballots) pins a search whose
piles lie deep in the ranking tree at levels 1 and 3.
``test_bytes_do_not_depend_on_the_hash_seed`` runs the shuffled case in
fresh interpreters under two hash seeds and requires the same bytes.

A refactor must leave every byte of these outputs unchanged.  A change that
moves numbers on purpose (normalising margins by the upper bound, or the
closed-form sample size) regenerates the table below with
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
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import DATA, FOURTEEN_STRENGTHS, TEN_STRENGTHS, cyclic_contest, deep_contest
from hamilton_rla.cli import main

ELECTIONS = ("election_irv", "election_plurality", "election_small")
CASES = [
    (election, level, seed, rate)
    for election in ELECTIONS for level in (1, 2, 3) for seed in (1, 7) for rate in ("0.002", "0.02")
] + [("ten_cyclic", level, 1, "0.002") for level in (1, 3)] + [
    ("ten_cyclic_shuffled", 3, 1, "0.002"), ("fourteen_cyclic", 1, 1, "0.002")] + [
    ("deep_rankings", level, 1, "0.002") for level in (1, 3)]

# "election/level/seed/error rate": (SHA-256 of the spec, SHA-256 of the proof log)
GOLDEN = {
    "election_irv/1/1/0.002": (
        "33bd7cf4abdc719e7203e479204a4383d5b8355805fe9161a08599d968632e20",
        "3329cc8f3ebf224387477f456df5c7e4d32ccd4480dafdb8cf5e621e3b867fa5",
    ),
    "election_irv/1/1/0.02": (
        "cb3154f6bae5cabd2911a4c9e441163783ca480dea35c55b030529bdebb58491",
        "bb73ab8b542ea664aecb833485e41641080a4d3cd3d49d8e55d23006bb2591fa",
    ),
    "election_irv/1/7/0.002": (
        "9a7c16801d3f1109728e9157bed7a57a6bd8ede1b2827ef30ea0e22ecf69810d",
        "3329cc8f3ebf224387477f456df5c7e4d32ccd4480dafdb8cf5e621e3b867fa5",
    ),
    "election_irv/1/7/0.02": (
        "f004d9b3b22f621a04fa1896a0a88be4254bae6eeb3d3d22ac09673747555a74",
        "bb73ab8b542ea664aecb833485e41641080a4d3cd3d49d8e55d23006bb2591fa",
    ),
    "election_irv/2/1/0.002": (
        "6a4f59d1e637e171d940d968533345cbc4e283b22ed1a8ec03a9032e37f93858",
        "bcd14a6ca8478ac61f3f04f4ee9de8ead73176bd7aedafdf49f66f3670876a1e",
    ),
    "election_irv/2/1/0.02": (
        "fbe671a2cb575198098b662b223d1b51b17044fff5855c7850582db05ece0ceb",
        "7eb04d43613e1deeb5b714c41d932578058f29cf4133a7681abef814b9a3b663",
    ),
    "election_irv/2/7/0.002": (
        "5c6e8fac51d53699efa3a2ecbd0f03640b93f1d9e9cbc04bf617089d671a47fe",
        "bcd14a6ca8478ac61f3f04f4ee9de8ead73176bd7aedafdf49f66f3670876a1e",
    ),
    "election_irv/2/7/0.02": (
        "6f450cde6d74fbea684d956ca2b1ec2e2ede60ab1bbece396c2d3ed166113c2f",
        "7eb04d43613e1deeb5b714c41d932578058f29cf4133a7681abef814b9a3b663",
    ),
    "election_irv/3/1/0.002": (
        "9f061e65452fdfeb3237c4f3036331255fadb49dc8259c33a9bb3601e08a0e93",
        "1158b81b22e42a093d5afa0162f846832cfa16c5ea3e09a93bfdbe49605f9245",
    ),
    "election_irv/3/1/0.02": (
        "4740088cbbe72b7774c1d47e19180e713855285fcff9d0a2d5772eaa4cdd4993",
        "c641acffe4050aba4b8cd7e114fe3beed37739537b8e5d7806931ed2905dc907",
    ),
    "election_irv/3/7/0.002": (
        "7d3d87b92150f752c36bbae6dd721fcc71ebfd5734c907997a2c91a02ece3d8e",
        "1158b81b22e42a093d5afa0162f846832cfa16c5ea3e09a93bfdbe49605f9245",
    ),
    "election_irv/3/7/0.02": (
        "5db76dcf8ab0967d6dd9de788ce082be40ba4b734e04c9b07bcde3a3ee66d6aa",
        "c641acffe4050aba4b8cd7e114fe3beed37739537b8e5d7806931ed2905dc907",
    ),
    "election_plurality/1/1/0.002": (
        "0ab6813080e7cbd11c7fe069d7bb713c5796159df10c53d918d64f51a1782290",
        "8f94f45f9bddcf6a51714fc09cb59e1a81bc2a67b3ab42bb0bf1c79ee2a3efe5",
    ),
    "election_plurality/1/1/0.02": (
        "9b3143c25696762ef9579ff8ae448469d59892c91b9ce4bdbe88ed30746eb57c",
        "b8633ca38a5e62c08cdf4859fbf3446749397de953eb71432fa3d7ea0e7f086f",
    ),
    "election_plurality/1/7/0.002": (
        "09c68376eeaaa00dca81a2096d4065fabae3a2ca28e7cc925c031c7c30daa8c5",
        "8f94f45f9bddcf6a51714fc09cb59e1a81bc2a67b3ab42bb0bf1c79ee2a3efe5",
    ),
    "election_plurality/1/7/0.02": (
        "d0dae41bc05e5a9d13d69c097c9d39d41d87b232f570b8ea4717dfa7485adbc8",
        "b8633ca38a5e62c08cdf4859fbf3446749397de953eb71432fa3d7ea0e7f086f",
    ),
    "election_plurality/2/1/0.002": (
        "9aaefa3e2ffc4ef000e440647f963011e27fb47f9def05ba203ed7b2ecd50e59",
        "6f12c0f8c27da4cedc9c4eb980a35355963c03dfa08bbd7abf5245ee34305d8f",
    ),
    "election_plurality/2/1/0.02": (
        "a0f2ed55d9b33525357f0e314f701a1078d98a1928386da86580bd30f81ce10b",
        "f913075623b20497741ac349183282ee16ed8bf9b99f4d3d9f4b33d8b6152023",
    ),
    "election_plurality/2/7/0.002": (
        "e3833951456730b4432f81736fa7089c5bfd8f83cfd986d772160f776636df73",
        "6f12c0f8c27da4cedc9c4eb980a35355963c03dfa08bbd7abf5245ee34305d8f",
    ),
    "election_plurality/2/7/0.02": (
        "eb2f446b016f78756521cacffc0358f12b50e25720c2387a663e3ed3653fc558",
        "f913075623b20497741ac349183282ee16ed8bf9b99f4d3d9f4b33d8b6152023",
    ),
    "election_plurality/3/1/0.002": (
        "07360d8e954bed5ab631e44e2090edc9ffa0d40ade0a1476904aa42f827e328a",
        "c9e76538d02e7b1f37a86f5a1c06b1fff599e7f148ea6eaeb97d3e47bbb9f05e",
    ),
    "election_plurality/3/1/0.02": (
        "ef8d9db64ea6e786c24292250675f57c5e157c61e41c02fe3b70f5be92f07579",
        "bd33a01e95d9ef9334fdcb6cf22d0d4c04cfdae8e4417a473e1f45021fac1a17",
    ),
    "election_plurality/3/7/0.002": (
        "0bbd0ee1ce895b9538ee1db1f3d3914bf335b7282133995a11123348fff0fb84",
        "c9e76538d02e7b1f37a86f5a1c06b1fff599e7f148ea6eaeb97d3e47bbb9f05e",
    ),
    "election_plurality/3/7/0.02": (
        "72cebc2c739d90da7c69db7e6243e084ad752f9da14fea344594f557fea4d2e6",
        "bd33a01e95d9ef9334fdcb6cf22d0d4c04cfdae8e4417a473e1f45021fac1a17",
    ),
    "election_small/1/1/0.002": (
        "9e6130558e015cebedb66e78ac18da5edcf65f7b8f21f099d529b07a006c7c12",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/1/0.02": (
        "cb3d54fd9f2761fbd97153859011cb7412bc86c6634265cd1be0325f6f9f311d",
        "2287f275ceeea555b4ae673e4500065092b6cb8befd8ca3a80d0067671f2a6bd",
    ),
    "election_small/1/7/0.002": (
        "1ee4ca125ce620f6f9e973099b0af45b2929820c8547f0156bd4fb89eb6f1c0a",
        "476aca62cece133fddeb5cbef9c2ab9c7a4f07ee1013fb6fac51ad050ddbf36f",
    ),
    "election_small/1/7/0.02": (
        "e64163a0e14b3d70dcb60816f1a2d7e386476d0fb3dbbface8bf6ec9008ae936",
        "2287f275ceeea555b4ae673e4500065092b6cb8befd8ca3a80d0067671f2a6bd",
    ),
    "election_small/2/1/0.002": (
        "0673fa2e6095483aec7c12c33b6087ae674b16ed8fd31a5c96521427d245bf04",
        "597e6303c80b8a49fa4ebc6723902073b695fa472e087bfc522c86cf1ed09005",
    ),
    "election_small/2/1/0.02": (
        "63acfb9082c1fc1ab2dc5f0f9f89bf78e6d458cd139bd93ed74ef89cee05a9de",
        "6d5328c96424bd2183e335bf0a893634ec85d09c7b9db059da258b97ccf6309e",
    ),
    "election_small/2/7/0.002": (
        "e846e1e125e2a10f7e6ded76014b5f143207ac8814bb9ae68649881421bfb93a",
        "597e6303c80b8a49fa4ebc6723902073b695fa472e087bfc522c86cf1ed09005",
    ),
    "election_small/2/7/0.02": (
        "e1aa98c541bff72005d08b9bf64143e4eb0f99f4242c9757fe290a86996b2729",
        "6d5328c96424bd2183e335bf0a893634ec85d09c7b9db059da258b97ccf6309e",
    ),
    "election_small/3/1/0.002": (
        "90e71f3e2f3978ef814b963b97637e514a759972a19e91be3585fc1c43a88df9",
        "4c179227a563f18ad9023ff53907ab61bf7232033e82868ec84921e10df90f80",
    ),
    "election_small/3/1/0.02": (
        "bb5a8a2cc449fe2ad80f72af0d62f642812c977c91e603364993470619e35999",
        "6b4d07a0ac49e539ce5a303f61ed5523c4d76c77831b8d91d2deee79ff88cdde",
    ),
    "election_small/3/7/0.002": (
        "cf347e745f065f22a666a18793605e1a6a34dafe7263d7aab2dc5ff2708e677a",
        "4c179227a563f18ad9023ff53907ab61bf7232033e82868ec84921e10df90f80",
    ),
    "election_small/3/7/0.02": (
        "7fcbf9f53e8bff42e635d4031574764082209e09a8692bf82b0cf475629683b4",
        "6b4d07a0ac49e539ce5a303f61ed5523c4d76c77831b8d91d2deee79ff88cdde",
    ),
    "ten_cyclic/1/1/0.002": (
        "9558113aa57cfea8f873bf7d7609e9bbd7edb89fbb61f411b3f59bcbff430daf",
        "ae5bab628010494b7939e79d2db6ea1dcb292af79d34ab790b659f9d49c87b08",
    ),
    "ten_cyclic/3/1/0.002": (
        "cd3d8dfb7abfdf4b0ba68d327e1898f3d584f0c16147678d2d181d2705d60cad",
        "3109b17b684f96678ab8b33c355490e6718e26cac3e54f5da006381e3239cc8d",
    ),
    "ten_cyclic_shuffled/3/1/0.002": (
        "faa9a0a176a72789ce9038a694c04e698670ee16fd7307f6d9867fbdc31a859b",
        "292b9482c0eb60daba85b2c78a5059f8c6967cf1a3edf0a84ffea1b3747339d4",
    ),
    "fourteen_cyclic/1/1/0.002": (
        "17646160ff7340ad6df753b0b3612b58b1f7e524b0be2fc4b4037edb698f2347",
        "39ee6a64453e7eb6b95577b6de2c47729cf3d43111a223faf438ae998bd208f7",
    ),
    "deep_rankings/1/1/0.002": (
        "c0bb0e8baa78771ede49b61de0b1d11a1859ff1895aabeb5e413c953dc4146ab",
        "2b2909aee4354294270388a4d7460e2c6580b837e508009017d3ce53337c277e",
    ),
    "deep_rankings/3/1/0.002": (
        "ed071528550488f6210449271d61c0acf7f631b30a65b9855e93d6b7cd7e294f",
        "add8fcf8cc314ff18b654a1c2df9f377472a48ec7cddfad2b5b33bf49f3578a1",
    ),
}


def _election_file(election: str, directory: Path) -> Path:
    """A ``tests/data`` election, or ``ten_cyclic`` (its roster shuffled
    with seed 5 for ``ten_cyclic_shuffled``), ``fourteen_cyclic`` or
    ``deep_rankings`` written to ``directory``."""
    if election == "deep_rankings":
        profile = deep_contest(random.Random(1))
    elif "cyclic" in election:
        profile = cyclic_contest(FOURTEEN_STRENGTHS if election == "fourteen_cyclic" else TEN_STRENGTHS)
    else:
        return DATA / f"{election}.json"
    roster = list(profile.labels)
    if election == "ten_cyclic_shuffled":
        random.Random(5).shuffle(roster)
    path = directory / f"{election}.json"
    path.write_text(json.dumps({
        "candidates": roster,
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
    # exit 4 exactly when the pinned spec says a full count is required
    assert code == (4 if json.loads(spec.read_text(encoding="utf-8"))["status"] == "requires-full-count" else 0)
    return hashlib.sha256(spec.read_bytes()).hexdigest(), hashlib.sha256(log.read_bytes()).hexdigest()


# what the audit writes: name -> SHA-256
AUDIT_GOLDEN = {
    "init/manifest": "ed46e024396b0b3bce2a3fa67e1f4facbe9c4bc42a722ab81ab362999d98b285",
    "init/state": "b9bb1d6cdc871d773899607445dc00cc6e0dcec16adcf0026bc3643bae2e2611",
    "round/state": "618e1206217fb4750db42498a6da690b94fd6a5f51ca65aa1e91c3de06b81038",
    "round/next_manifest": "788e175bf1108190f311d738bbbc497f53fe20f6da0a50e5fa1f5f24f9b230d8",
    "round/stdout": "e69df73091475c1418f95e9da26870b2b9f1260e0e5cb2d5bbd51d3ae1cde482",
    "follow-up/state": "29a5bb1a71899131758b9cc52fb9e5f4bdbc9a76a48a176daac1f49c3efec9ba",
    "follow-up/stdout": "5d8a4f4c47ae3170a66e663fb5c7d79c27e067578c38297bae3f44b68e00c6cf",
}

# the JSON reports: "election/command/output" -> SHA-256
REPORT_GOLDEN = {
    "election_irv/tabulate/stdout": "6cee65049f1ee0b11027bee2c77e20da3e955fa25dcc926c308306203af64ce7",
    "election_irv/estimate/stdout": "4e8a4b964bb5a704ad6a7cd7d66c22625ac20b7a6c8cca97eddd01dad3219537",
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


def test_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """``python -m hamilton_rla generate --level 3 --proof-log`` on the
    shuffled ``ten_cyclic`` writes the same spec and proof log under
    ``PYTHONHASHSEED`` 0 and 1: no set or dict iteration order reaches
    the bytes."""
    election = _election_file("ten_cyclic_shuffled", tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        spec, log = tmp_path / f"spec{hash_seed}.json", tmp_path / f"proof{hash_seed}.log"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "hamilton_rla", "generate", "--election", str(election), "--level", "3",
             "--seed", "1", "--out", str(spec), "--proof-log", str(log)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((spec.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


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
