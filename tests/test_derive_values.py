"""derive's answers, recorded as values: exit code, root value, missing facts.

tests/data/derive_values.json holds, for each list below, what `derive` gives:
exit code 0 and the root value, exit code 2 and the facts it lists as
missing, or exit code 1 for a list it refuses.  The seed-registry lists are
the derive golden lists, the paper's table rows, every list over the
derive-cli pools, single stars and books up to 59, C4,C4 with one star up to
29, two- and three-entry star, book and K3 mixes beside one to three C4s,
and lists with a C4+tK1 entry.  The random registries hold star, book and clique facts at up to 20
above the trivial lower bound.  The table pins values only, so a change of
tree shape, rule or notes that keeps every value passes here; the golden
digests pin the bytes.

To record the table from the current code:

    PYTHONPATH=src python tests/test_derive_values.py > tests/data/derive_values.json
"""

import itertools
import json
import random
import sys
from pathlib import Path

from c4ramsey import CannotDeriveError, RamseyFact, Registry, derive, replay, seed_registry
from c4ramsey.targets import parse_targets

from test_derive import trivial_lower_bound
from test_derive_golden import GOLDEN
from test_derive_json import POOL_LISTS, TABLE_ROWS

TABLE = Path(__file__).parent / "data" / "derive_values.json"

MIXES = ["S2", "S3", "S5", "B2", "B3", "K3"]
SEED_LISTS = sorted(
    set(POOL_LISTS) | set(TABLE_ROWS) | set(GOLDEN)
    | {f"C4,S{k}" for k in range(1, 60)}
    | {f"C4,B{k}" for k in range(1, 60)}
    | {f"C4,C4,S{k}" for k in range(1, 30)}
    | {",".join(("C4",) * m + combo) for m in (1, 2, 3) for width in (2, 3)
       for combo in itertools.combinations_with_replacement(MIXES, width)}
    | {"C4,C4+1K1", "C4,K3,C4+1K1", "C4,C4,S3,C4+3K1", "C4,C4,C4+1K1,C4+2K1", "C4,S5,C4+1K1", "C4,B3,C4+2K1"}
)

FACT_LISTS = ["C4,S2", "C4,S3", "C4,S4", "C4,S5", "C4,S6", "C4,S8", "C4,B2", "C4,B3", "C4,B4", "C4,B6",
              "C4,K3", "C4,K4", "C4,K5", "C4,C4,S3", "C4,S3,S3", "C4,C4,K3", "C4,K3,K3", "C4,B2,K3", "C4,S3,K3"]
RANDOM_LISTS = ["C4,S5", "C4,S7", "C4,S9", "C4,S12", "C4,B3", "C4,B5", "C4,B7", "C4,B9", "C4,C4,S4",
                "C4,S4,S5", "C4,C4,S3,S4", "C4,B3,S4", "C4,B4,B4", "C4,K5", "C4,K6", "C4,K4,K4", "C4,B3,K3",
                "C4,S4,K4", "C4,C4,B3", "C4,S4+1K1"]
REGISTRIES = 120


def random_registries() -> list[list[str]]:
    """Fact lines of each random registry: a random subset of FACT_LISTS,
    each exact or upper at 0 to 20 above its trivial lower bound."""
    rng = random.Random(18)
    registries = []
    for _ in range(REGISTRIES):
        lines = []
        for text in rng.sample(FACT_LISTS, rng.randint(3, len(FACT_LISTS))):
            value = trivial_lower_bound(parse_targets(text)) + rng.randint(0, 20)
            lines.append(f"{text} | {rng.choice(['exact', 'upper'])} | {value} | random | user")
        registries.append(lines)
    return registries


def outcome(text: str, registry: Registry) -> dict:
    """What `derive` answers for the list, as the CLI's exit code says it."""
    try:
        tree = derive(parse_targets(text), registry)
    except CannotDeriveError as e:
        return {"code": 2, "missing": e.missing}
    except (ValueError, OverflowError):
        return {"code": 1}
    replay(tree, registry)
    return {"code": 0, "value": tree.value}


def outcomes(registries: list[list[str]]) -> list[dict]:
    """One record per list: the seed lists under the seed registry, then
    each random registry's lists under it."""
    records = [{"registry": None, "targets": text, **outcome(text, seed_registry())} for text in SEED_LISTS]
    for i, lines in enumerate(registries):
        reg = Registry([RamseyFact.from_line(line) for line in lines])
        records += [{"registry": i, "targets": text, **outcome(text, reg)} for text in RANDOM_LISTS]
    return records


def test_derive_reproduces_the_recorded_values():
    recorded = json.loads(TABLE.read_text())
    assert len(recorded["registries"]) == REGISTRIES
    assert len(recorded["outcomes"]) == len(SEED_LISTS) + REGISTRIES * len(RANDOM_LISTS)
    for got, want in zip(outcomes(recorded["registries"]), recorded["outcomes"]):
        assert got == want


if __name__ == "__main__":
    registries = random_registries()
    rows = ["{", '"registries": [']
    rows += [",\n".join(json.dumps(lines) for lines in registries), "],", '"outcomes": [']
    rows += [",\n".join(json.dumps(rec) for rec in outcomes(registries)), "]", "}"]
    sys.stdout.write("\n".join(rows) + "\n")
