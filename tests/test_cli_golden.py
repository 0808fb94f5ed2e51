"""Pinned outputs of the lower-bound commands.

Each case runs one command line through cli.run and compares its exit code
and the sha256 of its stdout with the values recorded before the search and
partition outcome paths were folded into one.  A JSON document loses its
wall_time fields, at every depth, before it is hashed, so only the
deterministic fields are pinned: status, node count, witness, certificate
note, key order.  A file written through --witness-out is pinned by the
sha256 of its bytes.
"""

import contextlib
import hashlib
import io
import json

import pytest

from c4ramsey.cli import run

# a good (C4,K3)-coloring of K6, and K6 all in color 0 (which holds a C4)
W6 = "6 2\n" + "".join(
    f"{u} {v} {c}\n"
    for (u, v), c in zip(
        [(u, v) for v in range(1, 6) for u in range(v)],
        [0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0],
    )
)
BAD6 = "6 2\n" + "".join(f"{u} {v} 0\n" for v in range(1, 6) for u in range(v))

# name -> argv; "{out}" stands for a --witness-out file
CASES = {
    "search-feasible": ["search", "--targets", "C4,K3", "--n", "6"],
    "search-infeasible": ["search", "--targets", "C4,C4", "--n", "6"],
    "search-range": ["search", "--targets", "C4,K3", "--n-min", "5", "--n-max", "7"],
    "search-range-json": ["search", "--targets", "C4,K3", "--n-min", "5", "--n-max", "7", "--json"],
    "search-caps-feasible": ["search", "--targets", "C4,K3", "--n", "6", "--degree-caps", "3", "3"],
    "search-caps-cut-json": ["search", "--targets", "C4,K3", "--n", "6", "--degree-caps", "2", "2", "--json"],
    "search-caps-infeasible": ["search", "--targets", "C4,K3", "--n", "7", "--degree-caps", "3", "3"],
    "search-budget": ["search", "--targets", "C4,K4", "--n", "9", "--node-limit", "10"],
    "search-budget-json": ["search", "--targets", "C4,K4", "--n", "9", "--node-limit", "10", "--json"],
    "search-feasible-json": ["search", "--targets", "C4,K3", "--n", "6", "--json"],
    "search-infeasible-json": ["search", "--targets", "C4,C4", "--n", "6", "--json"],
    "search-witness-out": ["search", "--targets", "C4,K4", "--n", "9", "--witness-out", "{out}"],
    "search-witness-out-json": ["search", "--targets", "C4,C4", "--n", "5", "--json", "--witness-out", "{out}"],
    "partition-feasible": ["partition-check", "--graph6", "G?????", "--targets", "K3,K4"],
    "partition-feasible-json": ["partition-check", "--graph6", "Dhc", "--targets", "K3,K3", "--json"],
    "partition-witness-out": ["partition-check", "--graph6", "G?????", "--witness-out", "{out}", "--json"],
    "partition-infeasible": ["partition-check", "--graph6", "E???", "--targets", "P3,K3"],
    "partition-infeasible-json": ["partition-check", "--graph6", "E???", "--targets", "P3,K3", "--json"],
    "partition-identical": ["partition-check", "--graph6", "E???", "--targets", "K3,K3"],
    "partition-identical-json": ["partition-check", "--graph6", "E???", "--targets", "K3,K3", "--json"],
    "partition-budget": ["partition-check", "--graph6", "G?????", "--node-limit", "5"],
    "partition-budget-json": ["partition-check", "--graph6", "G?????", "--node-limit", "5", "--json"],
    "verify-good": ["verify", "C4,K3", "--coloring", W6],
    "verify-good-json": ["verify", "C4,K3", "--coloring", W6, "--json"],
    "verify-bad": ["verify", "C4,K3", "--coloring", BAD6],
    "verify-bad-json": ["verify", "C4,K3", "--coloring", BAD6, "--json"],
    "witness-good": ["witness", "C4,K3", "--coloring", W6, "--witness-out", "{out}"],
    "witness-good-json": ["witness", "C4,K3", "--coloring", W6, "--add-clique", "2", "--json"],
    "witness-bad": ["witness", "C4,K3", "--coloring", BAD6],
    "witness-bad-json": ["witness", "C4,K3", "--coloring", BAD6, "--json"],
    "bound-book": ["bound", "--r", "22"],  # the book bound on R(C4,S17) <= 22
}

# name -> (exit code, sha256 of stdout)
PINS = {
    "search-feasible": (0, "b0c4986953ba8c233b336cfe97952e92498e1dfb299b7a25ed3878e88b90e417"),
    "search-infeasible": (0, "49465e41c893401ca6a892724c651c568b869c151737dd9ce8019748ab200472"),
    "search-range": (0, "f98879a37faf7f9584241fb3a80e3e344a76b18f832d02361f4df94776ba1c74"),
    "search-range-json": (0, "20eea2fcd555d4a947273e3678e4e78abe9d3e3bf73ba53854d102fefd84c4ea"),
    "search-caps-feasible": (0, "e2a050c349e0ffab2f434f4bdc465f08223a4db4ed3b749103b6042f4ce6592b"),
    "search-caps-cut-json": (0, "9f6a8e7ad254bcd26e66e7ffa0b727c79cbefc0b1801f960fac81248009542de"),
    "search-caps-infeasible": (0, "634496b54c9012ad65fdd574b83d83420c1920d22f022e51c753a2d5d26edf8c"),
    "search-budget": (3, "abca904c72b58d6862db9bb265a9a5564d14a9af26a5185d316f4eecf268f084"),
    "search-budget-json": (3, "92d0a83ca58e865adba947452ea2bc19036efc18888f617af109084d8cead9c6"),
    "search-feasible-json": (0, "70d330f9783145a3cc253cc351da99a1be4fc73c590fdd160e4084b3b3e1313b"),
    "search-infeasible-json": (0, "33b243df124807b9ed6a556a941a979d36bee5e407b5f2c27cc43f0e0cdb7208"),
    "search-witness-out": (0, "fdee1235b8f2b63c9fcbf3ba22baa9a36011435bbe4f959f6bcd1a1ccd7d3ac7"),
    "search-witness-out-json": (0, "3c3462f452a802f90ef748835e093f009f75d9575bc79f0c87c405cbc0bd04a8"),
    "partition-feasible": (0, "a16ab4438b43872e464f46e32581ffbbf79bb52d924d5f9d8a472ee87a020dd2"),
    "partition-feasible-json": (0, "cb2ed159eb530d6355e6369016b1e86772c29278dca2fc0d69a8894b63d35204"),
    "partition-witness-out": (0, "99e34c69d5b181f57741c124ae12f445331f57f41ca8a508397448f459f258d0"),
    "partition-infeasible": (0, "cff24b1e0f6de73793fd1f45f0c4269f98ce66fa0f1f70ede3ab4d71c4cab978"),
    "partition-infeasible-json": (0, "67cd117b36981d0308a119d2715ed5f635714baa489061242bd5159d8a98f1c8"),
    "partition-identical": (0, "2ebb3f71db965e456babb4b3ac27caff838e4fa8bdad0d60042fd15cce742369"),
    "partition-identical-json": (0, "dd8bb5be44a90f55f4758699d6a81b4eff9e9577dfb02e4607de1473d0edec3e"),
    "partition-budget": (3, "382d3ebeab958ea1ba46cf4c88b1a435a84c90f390fcf4dbce8e9665dea6d267"),
    "partition-budget-json": (3, "eb812bec8eaa80767d7dc41e70de3e54dc0ce2c64694780bf8daf6bd7d941938"),
    "verify-good": (0, "6ab65ccaf0a820258c26f4e2b21feabc3248b2b308d03c81868f7364385911ab"),
    "verify-good-json": (0, "a0394743a66f7e9965817a3f2db60216ef3f238abf650bbf01ce489c1743a8e6"),
    "verify-bad": (2, "6c506b430171b37769ff6399f5300b2e05afdd0e46f631611ed4e52f84bd2de5"),
    "verify-bad-json": (2, "e2a2c17208007b6496408b8fb159fe11be2013efb0db03f979285cfc7db9a940"),
    "witness-good": (0, "514cc49d4cb26ddda2b8baec28658cf030c8b6f1a8c133ef20970912582c160b"),
    "witness-good-json": (0, "48654dd3e0b84a44e1945733bcef11f16847b260a3e055c24b2834c8e7194eb5"),
    # re-pinned when a bad input began to name its copy, as verify does:
    # "color 0 contains a C4 on vertices [0, 1, 2, 3]"
    "witness-bad": (2, "d5059ed4aed39099d24577b3be4f9db99ee165ccededec8a6e910246d3884024"),
    "witness-bad-json": (2, "9eedff3fb7a8f4fd7fc462b203bacaa0f2bd2222c2dfce570d4e10e957f5b137"),
    "bound-book": (0, "9961d158a7e0e2f990765971a9e490af826c0743b7d603020f34cc8944319fcb"),
}

# name -> sha256 of the --witness-out file
FILES = {
    "search-witness-out": "70d26871414cc0bc1945ba7d2a42b86daabded5d3db18bb5eee2389b1a946fbc",
    "search-witness-out-json": "ebffb2858e308b9a9c28fe22ed185014ceac70270fe4ad252030c90910aaa281",
    "partition-witness-out": "c060f6df5294147b8e70a28e261dfaf6031d11bfa190202d245c8b3cf509f103",
    "witness-good": "3f52c26d1e1e0609096516fde7f77300b28804832c7a2bdcad72f4d325db9ffb",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _timeless(doc):
    if isinstance(doc, dict):
        return {k: _timeless(v) for k, v in doc.items() if k != "wall_time"}
    if isinstance(doc, list):
        return [_timeless(v) for v in doc]
    return doc


def _digest(out: str) -> str:
    try:
        doc = json.loads(out)
    except ValueError:
        return _sha(out)
    if not isinstance(doc, dict):
        return _sha(out)
    return _sha(json.dumps(_timeless(doc), indent=2) + "\n")


def run_case(name, tmp_path):
    """(exit code, stdout digest, witness file digest or None) of one case."""
    path = tmp_path / f"{name}.txt"
    argv = [str(path) if a == "{out}" else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    written = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return code, _digest(out.getvalue()), written


def test_every_case_is_pinned():
    assert set(PINS) == set(CASES)
    assert set(FILES) == {name for name, argv in CASES.items() if "{out}" in argv}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_pin(name, tmp_path):
    code, digest, written = run_case(name, tmp_path)
    assert (code, digest) == PINS[name]
    assert written == FILES.get(name)
