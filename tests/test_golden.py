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
    # the cases below end their (variant, trial) tasks at different steps
    "assembly_interventions": (
        ["experiment", "assembly", "--trials", "12", "--step-cap", "4", "--seed", "5"],
        {
            "metrics.csv": "eadd5511b8aa9f0ca796782ded3b8256d5ccdff55f8a50b89abbce73ee531beb",
            "steps.csv": "7576898470ce27ac542950e65d1bb99a2542b4e7599eec68fb640a9502d89c38",
        },
    ),
    "matching_insertion_two_variants": (
        ["experiment", "matching_insertion", "--trials", "40", "--seed", "5",
         "--variants", "sampled_initial,frame_by_frame"],
        {
            "metrics.csv": "e9773bcdd057e94045a14840b924d6f694c3845c544dbb680c863ac1ddc8f11f",
            "steps.csv": "e2511e3588d7c768c97bd15faff32e60e34e8aec51cf196589660f8e39d35750",
        },
    ),
    "position_estimation_8_steps": (
        ["experiment", "position_estimation", "--trials", "30", "--seed", "5", "--steps", "8"],
        {
            "metrics.csv": "84d7e12732a4b5aa75752a84e3414d7e85d3a8f65f6e16553d53b6668c862b29",
            "steps.csv": "0c25f3cadf145b6c8771a10cff5958735adbde9705875fa1f824cfe9d385b6af",
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
    "train_readme": (  # README's command: 3000 records, 2000 epochs, about 1 s
        ["train", "--generate", "3000", "--epochs", "2000", "--lr", "0.01", "--seed", "0"],
        {
            "dataset.csv": "640c80fe9258165076c2f2c9f286c516f9ab64a4717f31500b26b39e6a93feed",
            "loss.csv": "af7ae6790f2f6ce7c6915dd7b780e84cea4e19b2f34f6b873c66ef2585ec43e9",
            "learned_params.json": "5b42b9f71866b74e394c850d9607d14adf12990bce7f72a8fc429090c6854fe3",
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
