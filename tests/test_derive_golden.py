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
stars and books (TheoremMT, which gives Parsons' bound and the book and star
corollaries), +1K1 entries (UnionK1), an edgeless entry and a K2 entry that
is stripped.  The last four have trees 9 to 11 nodes deep: C4,K20 (136),
C4,K8,K4+1K1 (786), C4,C4,K8,K4+1K1 (1874) and C4,C4,K5,K5,K3+1K1 (6243).  C4,K500 (65186) is a chain of 491 nodes, so
its nested pins fix deep indentation byte for byte: 9,263,439 bytes of JSON
and 272,473 bytes of text.
"""

import hashlib
import json
import sys

import pytest

from c4ramsey.cli import run

SEE_ABOVE = "  (see above)"

GOLDEN = {
    "C4,K11": (
        (0, "fec0b318d81bfe9a0dc00c018a49713216fc5c34bb694d4b5be89862023352fc"),
        (0, "f1621716b928dc27180c407c80ea9b361d6b2092d629cf7468f481fbc2f5dcc6"),
    ),
    "C4,K12": (
        (0, "81415196232308e5c6ebeafc833a168071b83466fc4826806c9e443400cdcb24"),
        (0, "6eb5631b3f808af14a350548f0828e46ad0e94a9f447b304ec53b21e67f68fe6"),
    ),
    "C4,K4,K4": (
        (0, "3f77ec237dfb223041e63e135d54699bf1ea3b20039e099b7dfbd1c4526cb4cc"),
        (0, "21e6d324250009d9ed6da017a7084cbdefe760963aac2aba579f1b944665e526"),
    ),
    "C4,K3,K3,K3": (
        (0, "ab3bb130901020871e0ec8fe0e95fe10789bbc0ed9de9c17e2a1a5550c37a8f1"),
        (0, "282e01b3a1409b3d6cbd34e008d6e3c89679baa533f1fc4e77f0eb243d137e90"),
    ),
    "C4,C4,K3,K4": (
        (0, "bdf0f2d26cc4b35584bd534c2afdec4f686d39c3873430776ae56d58203e463c"),
        (0, "0184dc96893e8e04e063dae1b54e9c8064224adc738b66bb2304b1795791514e"),
    ),
    "C4,C4,K4,K4": (
        (0, "1be95887152f8d4b68807c8d2e233579b53873066788b109e8ab2e3e050d9814"),
        (0, "e612b73957b863ec45ef5765c13447f84b97ee4d6313609bc522fb14400bd2bb"),
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
        (0, "3e2ec14e9b3103fe77a0327c475da2895dae26c4386e99cc5742c4db7a702a7b"),
        (0, "aa051aa4db3fd49e2fee26232d966dce93560d7ceb85991425929d165860311c"),
    ),
    "C4,S9,S9": (
        (0, "29437ffa28b73e2212bdc16039e2c392f28ae698af82581cec73bed1b53f3fba"),
        (0, "6bd971346377a9f70284edbe652a378f5989463e044ec402937dbc8bb98454b9"),
    ),
    "C4,B17": (
        (0, "84f8853f063f65fb97787c9e65ed1cae653fad59cb0b3942f4d96fa6a0df0068"),
        (0, "0070244ef925554998c99c76ad96033b73e1f54a45028cd4a91b8cfee36e35cb"),
    ),
    "C4,B3,S5": (
        (0, "5eee4394b96b320db82aa5fca99502fa9ac9813ef753dbbd882fc49f3963e1e9"),
        (0, "371ce3d7dbe33cbe03853e1a66e6bf32f3e42a6387e909fab0ecc6cfef614cc6"),
    ),
    "C4,K3+1K1": (
        (0, "326654c3866d4a6beb8d3275e56b072dd2e5c104f7e70cfa2775fce0d54c11ce"),
        (0, "84d01f75e8dc92f289e48ae3712fe66941390206245a68273c4c5c38af68b526"),
    ),
    "C4,C4,K4+1K1,S4+1K1": (
        (0, "6a537a5d158e81cc242c2eb5c9aa5c7b1f71897f6e034ecc87e8cbc726c6571c"),
        (0, "f22fb0bd6c39a6f4c793717bebd112812ab228318d4d2ee0568a0529ad092b58"),
    ),
    "C4,3K1,B3": (
        (0, "ee2390d7515190d59762d89c6800dc4c2b08717de9991401f869dd88460aaffd"),
        (0, "001588d33d77f396a12338ed235d529f1193ed24f26a17cee0f63740af9282d0"),
    ),
    "C4,K2,K3,K4": (
        (0, "35d992e38ba1eb906c5f5a5b2f9df2b3dd5e9a064ada5086fbfb48b2509417da"),
        (0, "2065feeb0ae2ee1225952c3f37900fabfa85fcc12ef72516645096c0ef924e58"),
    ),
    "C4,K20": (
        (0, "a91f582c1ca0dbe94bc0f6251dd8d892b09e35917d68daeac56a8fcbd7e1bcab"),
        (0, "58696fbf285e257d0301830f355313d2db5bc190fb8f68dc41586652e41b72d4"),
    ),
    "C4,K8,K4+1K1": (
        (0, "7ccbba2ec661b1d868581d7206b59ee68ab32d86d11ebba63bb0b962cb742272"),
        (0, "6394263680696a8d6e426238cf23b946258f234ca839db5d2e6aed6e0bfc9c2a"),
    ),
    "C4,C4,K8,K4+1K1": (
        (0, "df77bf440d7187118410145cd8b9b28d9cbbe65d10234ae0cebb2099cec535d4"),
        (0, "b1946fe1da4feb08bb1d8f2e33f9359ad0290a567a5d614b0ec5f3984a0c0df9"),
    ),
    "C4,C4,K5,K5,K3+1K1": (
        (0, "825c8f1d87245610aa907a4e2cc742cf22880314ba80bdeecfb2d29d7522dfd7"),
        (0, "2df37fc77760141d039cd17c58afb454c3e64047510737145ec8ed7d117bd79e"),
    ),
    "C4,K500": (
        (0, "8eb233d2f29d5a2f1deef42200717c573b73386b24d0c2a81f22eae9c2559f47"),
        (0, "367716168427671f9227589a687a3b1409c82eda34b8683469c05d03e1bcb962"),
    ),
}

RAW_JSON = {
    "C4,K11": "6e3d39537744050ba83d4fe4a6466aa21a87b33638b49b9dcbae63b45d31f963",
    "C4,K12": "8bfe6bcb501255bacf48f2da98d0e999fec9736276c4dac8330b922f2f0f051d",
    "C4,K4,K4": "410e546b586f8bd68e0ad94be133cde633796eee37ac02bd42791c419f57b51c",
    "C4,K3,K3,K3": "503c0b644870156b718cb4db1be5acf2b7c1d097aff1481ac06c01a876e43009",
    "C4,C4,K3,K4": "98e5dae6caa53d3284ec18a9001662510ed9f7b6f13caad82691719602884949",
    "C4,C4,K4,K4": "8393cfa4c17143aa03112c768dea29b728b77e4b1f3a41472ddecf36aa7f3636",
    "C4,K3,K4": "c74ec3a09bd2ae67f304642d9dd0447b2379c53fa07d3ac1d9775bb0400d83bf",
    "C4,K3": "bb18f1833db3099055f8195d2ac320b18a763020ea6d802cb640e88a21439e76",
    "C4,S5": "822a3532dbe2c142dfb7818ed599de8f0eab9a3095386ac8aaee0eb4bffd43cd",
    "C4,S9,S9": "5af644505013b3e9ce37c6ab8c871dd462a17a7799cc735a6540d18d5d41803f",
    "C4,B17": "ab17e70a0edd7484e5139af386612803f433e5cac31528630324ffb1b599d01a",
    "C4,B3,S5": "0e306155f84d119667313ddfb3be3b1d53014fbbd12391fc8ed2a82213b07ecf",
    "C4,K3+1K1": "4a12fc1b6b37e00ff6fb063cc04e6c1931eb6a889b98c6f86663255f4b2a243a",
    "C4,C4,K4+1K1,S4+1K1": "15d56e2c125fd641d3305a9961f8b5e464cdefeba571308e6e3bfe051cc89e5a",
    "C4,3K1,B3": "deb89ada8167e2a142d711b078437b1ab6814b0651260eb8e9787cd4624e4669",
    "C4,K2,K3,K4": "c74ec3a09bd2ae67f304642d9dd0447b2379c53fa07d3ac1d9775bb0400d83bf",
    "C4,K20": "ca751b4203d715ffde73df064ba042cbe2cf389b855370a0c1cd7a759f310adf",
    "C4,K8,K4+1K1": "25dfecad84aa613c8044b8331368cdf8d173b4e242512d29e71474a3652c3e04",
    "C4,C4,K8,K4+1K1": "937ccb2a5096980f6d366c8b615d02c2a7e3f86e22e1cd5f4cba82f23f82517f",
    "C4,C4,K5,K5,K3+1K1": "21c495f9ed0ae047b475edd7836486f3e842be710ad0f146b2e44c6e5a8d3a82",
    "C4,K500": "595d953f4243ea64bdd6a9ae5f94e0dbb08b9c41add17daeb8d2a26aec666737",
}

# The lists whose text has a "(see above)" line; every other list's text
# bytes are its GOLDEN text pin.
RAW_TEXT = {
    "C4,C4,K4,K4": "cba51c209372d7f3b452693a5d5b7bffff764544b4d3ba8040e471f2ee9044cb",
    "C4,K8,K4+1K1": "2a82755b973af82046b7a09417657b8eddb7c7865c0c95632352a85ca07f7d7b",
    "C4,C4,K8,K4+1K1": "cfb64409bd9ef56be76c77b0713ff52c73a2a7353b761591eb894d577042d77c",
    "C4,C4,K5,K5,K3+1K1": "a74da3f077d3ea7a479803e2568bd4646c623f6d3a03d7a601a31806342ef90d",
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
FAMILY_DIGEST = "77bfee6e976f2da2f428388dbbe8027bb3e5555f617f9012bd546f4efc3ec831"


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
