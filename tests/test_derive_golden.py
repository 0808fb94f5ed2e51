"""Byte-exact derive output: the planner's tree choice and both formats.

GOLDEN maps each list to (exit code, sha256) for `derive LIST --json` and for
`derive LIST` in text mode, taken over the nested output: the tree written
out with a shared subtree repeated under each parent.  The CLI writes each
distinct node once, as a node table in JSON and as a "(see above)" line in
text, so the output is expanded back into the nested form before hashing;
RAW_JSON and RAW_TEXT pin the bytes the CLI prints.  Text output only changes
where a subtree with children is shared; elsewhere its raw bytes are the
nested ones.  Any change to tree choice, tree order, notes or formatting
fails here.  The lists cover the paper's table rows, a cannot-derive answer,
stars (Parsons, StarsCor), books (BookCor), +1K1 entries (UnionK1), an
edgeless entry and a K2 entry that is stripped.  The last four have trees 9
to 11 nodes deep: C4,K20 (136), C4,K8,K4+1K1 (786), C4,C4,K8,K4+1K1 (1874)
and C4,C4,K5,K5,K3+1K1 (6243).  C4,K500 (65186) is a chain of 491 nodes, so
its nested pins fix deep indentation byte for byte: 10,262,861 bytes of JSON
and 307,575 bytes of text.
"""

import hashlib
import json
import sys

import pytest

from c4ramsey.cli import run

SEE_ABOVE = "  (see above)"

GOLDEN = {
    "C4,K11": (
        (0, "184e37ac5fc8169f6b1bb667e85b7a58c72ad9f2408f6b6f593285c3a10b1669"),
        (0, "3b42cec227115d9948b93faf956a48e537ba1763972f07b7bc3f55873060ea96"),
    ),
    "C4,K12": (
        (0, "451afd0b4102fb5a5a4ff9a5a608cdf54e5b917f4fb5ce26bb5535f923c60dcc"),
        (0, "a944b1c06151cdbb040be929a8b3b43a866e88fa8fb4d52e928bc1aa5a605b13"),
    ),
    "C4,K4,K4": (
        (0, "b201378dd86c672342c2f99cbabb3eb60e8f458c3c2cd1d2f2530216529033cb"),
        (0, "b8246eac1c610818a58ca2d54ce9c7e7e80c9a7e5652a47ed215b1a963309ff1"),
    ),
    "C4,K3,K3,K3": (
        (0, "d715f630e5c2f70fc5474e97e359f547dad01f8a269ad72b8a15350ffe949c01"),
        (0, "64fed8053cf1291b689781d41a4f918d01105989cace0a487709b8cbf6a6b752"),
    ),
    "C4,C4,K3,K4": (
        (0, "53e3af8497f42bc9e0b3dd20764c453a0d799aebd5ee5ba2b3aba839e1cc6a81"),
        (0, "44084d5cbfb2e32232b928f00f4b3ce8de79ae37a13ae0ee9d628a633f13fde3"),
    ),
    "C4,C4,K4,K4": (
        (0, "fcd77ae488cb8651a345559bfb416df1b47296123bbca40a733126f7923261f0"),
        (0, "61125b16d863c3f884a00f1e3ab31c41b88b33d757f51d743be5188e3144d7ed"),
    ),
    "C4,K3,K4": (
        (0, "35d992e38ba1eb906c5f5a5b2f9df2b3dd5e9a064ada5086fbfb48b2509417da"),
        (0, "2065feeb0ae2ee1225952c3f37900fabfa85fcc12ef72516645096c0ef924e58"),
    ),
    "C4,K3": (
        (2, "bb18f1833db3099055f8195d2ac320b18a763020ea6d802cb640e88a21439e76"),
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    "C4,S5": (
        (0, "31d58929dd7186587a8ba8684cfa7d5e9037ff4c91e8721cb0bcadf975e40b2d"),
        (0, "865c9fa023605de862454c593940a4052a041e518569ab1362e3a20e57b1ff2e"),
    ),
    "C4,S9,S9": (
        (0, "51dddf13aae8fe65b11a208dfcd84606aba96816b55614d53319b42af6e9acab"),
        (0, "bf66da99ec49f2f4b278176164f3f80b713cb0a1d135be9e168fac45e4201cb3"),
    ),
    "C4,B17": (
        (0, "2e76565a41b156aae7719186b4d0e02bae4c4c840da203813aae0263472aa421"),
        (0, "4208c86da400690744c9562b45e9390d04f5ed994057f5a0deadd7d06d17bf9e"),
    ),
    "C4,B3,S5": (
        (0, "7f78a842db4b0ac836ed956f233531f6c9475df2554d444786b234debc74f937"),
        (0, "461a5653b2bc2be97b3384a0f50e9d3dab01222c1b5a91a19d6c0d0b0cf7a90d"),
    ),
    "C4,K3+1K1": (
        (0, "d7f77a71ce90d87960797aa9b4c54b6e8a600fedc6b72a2d5649db8b672909a7"),
        (0, "3a8360ef753f2a52392e64cfbc3ffa3960d28b5a7af317a4dbf1fdc8c906b911"),
    ),
    "C4,C4,K4+1K1,S4+1K1": (
        (0, "382ce84efb8f16f70288deb6e9d31b9d2a718f80a475a2742114a612ed880685"),
        (0, "35694412dc4302bed75e334b879a7118b41e5d1ea99769f78bfab26b03d193c3"),
    ),
    "C4,3K1,B3": (
        (0, "c3301dd960015e4ae7b6f05222cb88a8c3a1a59cf225f32a116221d05168e944"),
        (0, "d1ac0a1aebde474e997c0a4f57d5f3e4ceb2711d81bdc6de08486da39c83d01d"),
    ),
    "C4,K2,K3,K4": (
        (0, "35d992e38ba1eb906c5f5a5b2f9df2b3dd5e9a064ada5086fbfb48b2509417da"),
        (0, "2065feeb0ae2ee1225952c3f37900fabfa85fcc12ef72516645096c0ef924e58"),
    ),
    "C4,K20": (
        (0, "cea5143fbc4a7bb0099083cb3f0a0da143e5d113218f7ba09f2e057445a88da8"),
        (0, "07bd6debb8541744a59bf849f34871979b3a491855c147d3f61e7d518eb8fac5"),
    ),
    "C4,K8,K4+1K1": (
        (0, "70320bfad0c2b71aae1afb3b5a6074031f61f84698df256f2cdcd9be56bf00c6"),
        (0, "7bb13311d201d17e390bf80d18c313def10f064a612207d0bf9fe6ae5f522ae4"),
    ),
    "C4,C4,K8,K4+1K1": (
        (0, "0c8d572b2746f4852b03acd306a93a0e703dc5145116cf746b491c719fd3d57a"),
        (0, "63e9c0aebddba065fe4b307ae014f13ece7edb29b76847ac83fde4c5308ef913"),
    ),
    "C4,C4,K5,K5,K3+1K1": (
        (0, "2a83b3388495e38735cdf6a5cbd7e0ed3509aa63421b89a10bb26f89df0b4f91"),
        (0, "745567ec24ebfec9466f24c95567713715485d5a67024a1d333302b7c4ee2c9b"),
    ),
    "C4,K500": (
        (0, "a5f41276d7cb4381006bdf191cb810bcb4c1df42d420b5bc80f4654e923b2c9d"),
        (0, "3ef504a8d17399cc0ac943537324321d1caa8ad86214f18e47d66cd37e3d9f9c"),
    ),
}

RAW_JSON = {
    "C4,K11": "c9f49484f494b9a3ba38b8d1d34bb96e586845fcf0741ef24009ae1f65640f95",
    "C4,K12": "7d71c53650bdc93a59267281945279c3e16bc26b79b13ab612f4064f8f9c9c5f",
    "C4,K4,K4": "f60bc50b7968f4516eb4715fc50e3fb385ab2661a293e5bf38ef858de5fd9fc8",
    "C4,K3,K3,K3": "8b4d05ce8c9a10947b6b8a16a9bc608e431cdba0f90f76287401a16b69575005",
    "C4,C4,K3,K4": "3b763056acac45f76e2b34e0148a94fd1b79c159c1831727930e2532c7850d61",
    "C4,C4,K4,K4": "166d26a6a0352e9f2b0344888025eb615fcffdbd99805672623f1bb895b2f095",
    "C4,K3,K4": "c74ec3a09bd2ae67f304642d9dd0447b2379c53fa07d3ac1d9775bb0400d83bf",
    "C4,K3": "bb18f1833db3099055f8195d2ac320b18a763020ea6d802cb640e88a21439e76",
    "C4,S5": "984a4d46c61c57a46dc63b1230a8e6d839460b82a929564449c8c26d8cfd423d",
    "C4,S9,S9": "81a6fe6c73e0f3516e8218fa19a96dbfad57512984f8cfd9e0b4f27ee7928704",
    "C4,B17": "f15473c60edfad2cd0ce0e259e1358f6746c09020ecddeffcd1c24fef0b64dcc",
    "C4,B3,S5": "242945fc03f552206e7ed38047866985a8e62a4c8d1efcf42f4e4249f291a5d0",
    "C4,K3+1K1": "fd2b8530bc6008b17da91038b08cef86a7d298d3080813ed30a24911b544edf5",
    "C4,C4,K4+1K1,S4+1K1": "4609ef4a2fc84d2062aa9c3a96663867c31d92bdd14fc1d088f83eba594483f6",
    "C4,3K1,B3": "2259e007e7b7a99e0a8be11792f060017e92dba109a1417817e59241c5f5cf1e",
    "C4,K2,K3,K4": "c74ec3a09bd2ae67f304642d9dd0447b2379c53fa07d3ac1d9775bb0400d83bf",
    "C4,K20": "f3fbe014be1e2711aaa6c40ce19014e4f8418b386ac35b32d13c96d58c03bd5c",
    "C4,K8,K4+1K1": "391aab4e5912ce2456ea8898fd40124fa326ac990337d6e5bb902aa25274b861",
    "C4,C4,K8,K4+1K1": "48e96f9f2bd5f41568b040ca1b5cdfceb38d9630ff239550543f048c876687db",
    "C4,C4,K5,K5,K3+1K1": "d19ff8fadb03efa8ab2e987aa7221c7c57845ca5e03480949f01098049da25c9",
    "C4,K500": "b921dda5938cdbbda32bd877dd8e0bbb02ea50208c0436e10e073611b6fef1ca",
}

# The lists whose text has a "(see above)" line; every other list's text
# bytes are its GOLDEN text pin.
RAW_TEXT = {
    "C4,C4,K4,K4": "0ea9e235faad28bcd706a159362ab442eb1b614bb0657eeb90dd3ec19f368524",
    "C4,K8,K4+1K1": "a86807b81b55002bb16ae868ad9514898c294015333dd15657babddcc310ab3a",
    "C4,C4,K8,K4+1K1": "9ab0da429b7cd1e961b88d380800c745ace8f00f4e2d46c97fce9f883b0833a4",
    "C4,C4,K5,K5,K3+1K1": "3a6be43620b9374940ef7391622cb7f46c0b265dcc260684265e4462ff30732a",
}

# The stdlib's indenting encoder recurses about twice per tree level.
DEEP_LIMIT = 10_000


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def nested_json(out: str, deep: bool = False) -> str:
    """`derive --json` output with its node table nested back into one tree:
    a node's children are written inside it, a shared subtree under each
    parent.  deep raises the recursion limit for chains hundreds deep."""
    doc = json.loads(out)
    if "tree" not in doc:
        return out
    built: list[dict] = []
    for node in doc["tree"]["nodes"]:
        built.append({**node, "children": [built[c] for c in node["children"]]})
    doc["tree"] = built[-1]
    limit = sys.getrecursionlimit()
    if deep:
        sys.setrecursionlimit(max(limit, DEEP_LIMIT))
    try:
        return json.dumps(doc, indent=2) + "\n"
    finally:
        sys.setrecursionlimit(limit)


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def nested_text(out: str) -> str:
    """`derive` text output with each "(see above)" line replaced by the
    block first written under the same line: that line and the deeper lines
    after it, moved to the marked line's indentation."""
    lines: list[str] = []
    first: dict[str, int] = {}  # a line without its indentation -> index in lines
    for line in out.split("\n"):
        if not line.endswith(SEE_ABOVE):
            first.setdefault(line.lstrip(" "), len(lines))
            lines.append(line)
            continue
        line = line[: -len(SEE_ABOVE)]
        start = first[line.lstrip(" ")]
        end = start + 1
        while end < len(lines) and _indent(lines[end]) > _indent(lines[start]):
            end += 1
        pad, cut = " " * _indent(line), _indent(lines[start])
        lines += [pad + old[cut:] for old in lines[start:end]]
    return "\n".join(lines)


@pytest.mark.parametrize("targets", GOLDEN)
@pytest.mark.parametrize("mode", ["json", "text"])
def test_derive_output_is_pinned(targets, mode, capsys):
    json_row, text_row = GOLDEN[targets]
    code, digest = json_row if mode == "json" else text_row
    argv = ["derive", targets] + (["--json"] if mode == "json" else [])
    assert run(argv) == code
    out = capsys.readouterr().out
    if mode == "json":
        assert sha256(out) == RAW_JSON[targets]
        assert sha256(nested_json(out, deep=targets == "C4,K500")) == digest
    else:
        assert sha256(out) == RAW_TEXT.get(targets, digest)
        assert sha256(nested_text(out)) == digest


# sha256 over "LIST MODE CODE\n" + stdout, as printed, for every list built
# from test_derive_json.POOLS, the paper's table rows and the GOLDEN lists
# (278 distinct inputs) in sorted order, JSON mode (MODE 1) before text (MODE 0).
FAMILY_DIGEST = "2b6a4d6c5f56d8a5ecd26d941e529af69529d65fb6bfd9baf1a94299d1fafeb0"


def test_derive_family_is_pinned(capsys):
    from test_derive_json import POOL_LISTS, TABLE_ROWS  # that module imports this one

    lists = sorted(set(POOL_LISTS) | set(TABLE_ROWS) | set(GOLDEN))
    assert len(lists) == 278
    digest = hashlib.sha256()
    for text in lists:
        for mode, extra in ((1, ["--json"]), (0, [])):
            code = run(["derive", text, *extra])
            digest.update(f"{text} {mode} {code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == FAMILY_DIGEST
