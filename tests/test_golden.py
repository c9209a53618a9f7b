"""Golden outputs: the sha256 of every file the CLI writes at fixed seeds.

A change meant to keep outputs byte-identical keeps these hashes.  A change
that moves outputs on purpose updates them and says why.  The hashes were
recorded with numpy 2.4 on x86-64 Linux; another numpy or platform may round
some floats differently.
"""

import hashlib

import pytest

from belieffit.cli import main

CASES = {
    "position_estimation": (
        ["experiment", "position_estimation", "--trials", "3", "--seed", "0"],
        {
            "metrics.csv": "3d8900ac057d5f1c98c4b7f76b390d9704219ebc26bf4106e0e5017c33aaff78",
            "steps.csv": "cdb411236fd7cf673e18b7673d333ca3a5b9ef6b2a603c7ca4586c94de43a369",
        },
    ),
    "matching_insertion": (
        ["experiment", "matching_insertion", "--trials", "3", "--seed", "0"],
        {
            "metrics.csv": "ff137e88db8bdf006ff3e42acbcec04cfef00cce3292e4d9eb5c13cf14f762c5",
            "steps.csv": "88a1c8010da8b8122e71822059ddce98281413a61150600da2516c2f1b9ce5a5",
        },
    ),
    "assembly": (
        ["experiment", "assembly", "--trials", "3", "--seed", "0"],
        {
            "metrics.csv": "91f334e9a3d031ab060bbf9d87cad2f92bbcf8198146ac625a7ade2e7a184e1d",
            "steps.csv": "ea749fcb2ed362c64317fecf8793e8de5cba7e79c3ec7eb684e567fa2eec85ad",
        },
    ),
    "train": (
        ["train", "--generate", "40", "--epochs", "40", "--seed", "3"],
        {
            "dataset.csv": "00dcc784fea95d51c5781b3678bffd181eb2d4ab2efe276e1610b736c4ce4daa",
            "loss.csv": "1ed9b787c0653355bbcd72770a481e37ceedaebdc39c9bc1b957df03c5d5f9de",
            "learned_params.json": "014dabea300073a20286c6aca615dfbd1625e6ed48e3bf7c49c9166b3e722fe3",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_hashes(tmp_path, capsys, case):
    argv, expected = CASES[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected


def test_calibrated_config_matches_golden_hash(tmp_path, capsys):
    path = tmp_path / "cal.json"
    assert main(["calibrate", "--trials", "40", "--seed", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    # the config lost its `learned` block, `env.rng_seed` and `spiral.delta_z`;
    # every value that remains is as before
    assert digest == "001b8bbafc8a8f3ac1eebcf5a7b2299bd5d13b3bf428c4e637b0f0159c17696e"
