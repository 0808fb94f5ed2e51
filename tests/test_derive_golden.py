"""Byte-exact derive output: the planner's tree choice and both formats.

Each list maps to (exit code, sha256 of stdout) for `derive LIST --json` and
for `derive LIST` in text mode.  Any change to tree choice, tree order,
notes or formatting fails here.  The lists cover the paper's table rows, a
cannot-derive answer, stars (Parsons, StarsCor), books (BookCor), +1K1
entries (UnionK1), an edgeless entry and a K2 entry that is stripped.  The
last four have trees 9 to 11 nodes deep: C4,K20 (136), C4,K8,K4+1K1 (786),
C4,C4,K8,K4+1K1 (1874) and C4,C4,K5,K5,K3+1K1 (6243).  C4,K500 (65186)
is a chain of 491 nodes, so its pins fix deep indentation byte for byte:
10,262,861 bytes of JSON and 307,575 bytes of text.
"""

import hashlib

import pytest

from c4ramsey.cli import run

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


@pytest.mark.parametrize("targets", GOLDEN)
@pytest.mark.parametrize("mode", ["json", "text"])
def test_derive_output_is_pinned(targets, mode, capsys):
    json_row, text_row = GOLDEN[targets]
    code, digest = json_row if mode == "json" else text_row
    argv = ["derive", targets] + (["--json"] if mode == "json" else [])
    assert run(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out

