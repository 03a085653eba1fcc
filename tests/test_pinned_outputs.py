"""Output bytes of the region-building commands that the benchmark does not pin.

tests/test_fingerprints.py pins the benchmark's workloads (an ML search, the
typicality continuous build, bounds); these runs cover the rest of the paths
that select and build a region: analyze under both criteria, a maximizing
search whose winner is not trial 0, a sweep, a multi-k reproduce and an ML
continuous build. Each hash was recorded before the region builders were
folded into one and must not move.
"""

import hashlib

import pytest

from lqn.cli import main

PINNED = {
    "analyze-ml": (
        ["analyze", "--dist", "w3", "--k", 2, "--seed", 4],
        {
            "marginals.csv": "4b3c2c35f7eddb3fa2c7867ee888e77c4c3d80cf2be0f429b3e24842f2010887",
            "region.csv": "901b51b71439ed3abec34a5f4edd7d7ac6ca89c9456b62a3fdcf0c4ae0dce3e7",
            "report.json": "e584190309c2f79b4605357c39130b9acedf31aaf9561ff7e3cc12ba6000c9d3",
        },
    ),
    "analyze-typicality": (
        ["analyze", "--dist", "w3", "--k", 2, "--seed", 4, "--criterion", "typicality"],
        {
            "marginals.csv": "3986ea480adce26f1c2929ff1cd2ce8ae01101d7b5740a2e7ec0754255781b05",
            "region.csv": "94bc4f257fc072086abd95da36753433e0569acc866ea7bf9fcb3e0e823b59cd",
            "report.json": "1203647dfa7075a86f1cad6856ac67255f6f626c840651583eb44c7ff196ce55",
        },
    ),
    "search-maximize": (
        ["search", "--dist", "w3", "--k", 2, "--trials", 4, "--seed", 5,
         "--direction", "maximize"],
        {
            "marginals.csv": "2f25e49f42f1fd7df5555e058cf3b9b9326b2aadf675defc3b6c810f0cba2cc4",
            "region.csv": "5f9f6a5eb8e54e4cc03eaeb061801b43f3a12ed933a8821482ae1331a0adc175",
            "report.json": "89d51e610f940b0ebec3c76ddc97bd281d368e366afb088b12aa4aea8222fcb6",
            "trials.csv": "bdd5c5c3350dd05c2ea3adde5da56f14e3a9ec3fa595dcc4a6bacb7cd5a7a007",
        },
    ),
    "sweep-rate": (
        ["sweep-rate", "--dist", "w3", "--k-range", "1:3", "--trials", 3, "--seed", 2],
        {
            "sweep.csv": "e599405a7a2fdb142182b5538a9f0deacd549ecec28667c27a15e697d940384d",
            "sweep.json": "50f0c2af4c1aa324627d0cb3f6eb22c0f779de746ca18394049f15a24f210222",
        },
    ),
    "reproduce-w3": (
        ["reproduce", "--case", "w3", "--trials", 2],
        {
            "marginals.csv": "3dfa436afac9911d8ade19fc72986fe15772dec6ddfa2021243a3fc082be2bd3",
            "region.csv": "3701acc522d857c383f48a66d9c50711fc0601a463db1079f2ea651e180e53db",
            "report.json": "ddc4c29d15b360e4a8c1f777a1b3bf519dce407b1d8845b99f597f1d94fd23a9",
            "sweep.csv": "5214a0b12c6f54e35e1455b8169e676b844fb9f294291da8cc58cf997046928f",
            "sweep.json": "fd5cd2c5b15a9091f588cfaced09da2e75378209abd2cc402ba995e7fe420b05",
            "trials.csv": "1234aa47d9bada7398cd93a32bf1fce91b528531b9102d23605438edb4fd6ff4",
        },
    ),
    "continuous-ml": (
        ["continuous", "--dist", "flat", "--p", 5, "--n", 3, "--criterion", "ml",
         "--seed", 1],
        {
            "continuous_report.json":
                "ab09c5b0edfa0b03637f71c331ebe7df6125d853d7044539fdb89d3ba2ec3d08",
            "region.csv": "7e7e8a0ed937788a2f165ef6c2a61640bbb935db407fa7ba629a5e567a4b2386",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_match_pinned_hashes(tmp_path, name):
    argv, files = PINNED[name]
    assert main([str(a) for a in argv] + ["--out-dir", str(tmp_path)]) == 0
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert hashes == files
