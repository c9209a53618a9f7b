"""Golden outputs: the sha256 of every file the CLI writes at fixed seeds.

A change meant to keep outputs byte-identical keeps these hashes.  A change
that moves outputs on purpose updates them and says why.  The hashes were
recorded with numpy 2.4 on x86-64 Linux; another numpy or platform may round
some floats differently.

The Kalman update's posterior covariance is Sigma1 = K R, multiplied out
with exact 2x2 determinants, for the policy's step and the training loss
alike; before, it was (I - K) Sigma0, which cancels when the noise is far
below the prior.  That moved every case that runs a Kalman update in the
last digits (at most 7.2e-9 relative in a step row, no outcome or chosen
hole changed) and `train`'s loss.csv and learned_params.json in the last
one or two (at most 9.3e-16 relative); the datasets, the case whose
variants make no Kalman update (`matching_insertion_two_variants`) and the
calibrated config are unchanged.
"""

import hashlib

import pytest

from belieffit.cli import main
from belieffit.runfiles import CSV_BLOCK_ROWS

CASES = {
    "position_estimation": (
        ["experiment", "position_estimation", "--trials", "3", "--seed", "0"],
        {
            "metrics.csv": "fda1916ec632dd25220f2e6a9f1b50cc0108a4defdb9648cbcd1a5dbc5ad31dd",
            "steps.csv": "e1a88820115e2988995499d11ed54693fb0dbc4cead943a20890a94a1fd7acbc",
        },
    ),
    "matching_insertion": (
        ["experiment", "matching_insertion", "--trials", "3", "--seed", "0"],
        {
            "metrics.csv": "ff137e88db8bdf006ff3e42acbcec04cfef00cce3292e4d9eb5c13cf14f762c5",
            "steps.csv": "d52c8a312054940df4c10a1d3fbc5adc89a2ee8b6260c9fc0b02665ad382483f",
        },
    ),
    "assembly": (
        ["experiment", "assembly", "--trials", "3", "--seed", "0"],
        {
            "metrics.csv": "91f334e9a3d031ab060bbf9d87cad2f92bbcf8198146ac625a7ade2e7a184e1d",
            "steps.csv": "85925aebf8854e4503f62dbedf21e17675ab5f0bb6e17ae673d03cd2528ca880",
        },
    ),
    # the cases below end their (variant, trial) tasks at different steps
    "assembly_interventions": (
        ["experiment", "assembly", "--trials", "12", "--steps", "4", "--seed", "5"],
        {
            "metrics.csv": "eadd5511b8aa9f0ca796782ded3b8256d5ccdff55f8a50b89abbce73ee531beb",
            "steps.csv": "a72dc246c6fe24b320f443fec17283351af70e52bb4c84e82a0194bd93fad4a4",
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
            "metrics.csv": "991332fbdc81f421a0517f6db212a44beb7f164f15f71a51e89c65b237019fa0",
            "steps.csv": "d5cbe98534f3db5d4909a4f88e162e4f6835b02a62fb45d0e27b14a393317995",
        },
    ),
    # 2889 step rows, recorded when `csv.writer` wrote each row; `write_csv`
    # now formats them in blocks of rows
    "assembly_blocks": (
        ["experiment", "assembly", "--trials", "20", "--seed", "2"],
        {
            "metrics.csv": "c9996815de5f9275f657eccc5f1e729a98f0f1573dcff85b7abbdef0471b5b13",
            "steps.csv": "00b4ffa13508f0f45b87be1f33c54bed59b5fe09e06bfa5c7d9ec3dcd403ed8f",
        },
    ),
    "train": (
        ["train", "--generate", "40", "--epochs", "40", "--seed", "3"],
        {
            "dataset.csv": "00dcc784fea95d51c5781b3678bffd181eb2d4ab2efe276e1610b736c4ce4daa",
            "loss.csv": "a05e0aeb10cb7a948e47523e577f13e77651ae9facfad51714aa3e2a0bda8198",
            "learned_params.json": "adf5363a4b2091b9f028ec1a799364d83d977dca0893e8031e5fa837bd78ff39",
        },
    ),
    "train_readme": (  # README's command: 3000 records, 2000 epochs, about 1 s
        ["train", "--generate", "3000", "--epochs", "2000", "--lr", "0.01", "--seed", "0"],
        {
            "dataset.csv": "640c80fe9258165076c2f2c9f286c516f9ab64a4717f31500b26b39e6a93feed",
            "loss.csv": "9243e9124208b1fe8d5768608ca47e0759129e019410183b95e8e288ecf0d147",
            "learned_params.json": "e80e34676255eac8e838539d465f301dfbe09698f790451deab626a5150afa99",
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
    if case == "assembly_blocks":  # the rows fill more than two of the writer's blocks
        assert (tmp_path / "steps.csv").read_bytes().count(b"\n") > 2 * CSV_BLOCK_ROWS + 1


def test_calibrated_config_matches_golden_hash(tmp_path, capsys):
    path = tmp_path / "cal.json"
    assert main(["calibrate", "--trials", "40", "--seed", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    # the config lost its `learned` block, `env.rng_seed` and `spiral.delta_z`;
    # every value that remains is as before
    assert digest == "001b8bbafc8a8f3ac1eebcf5a7b2299bd5d13b3bf428c4e637b0f0159c17696e"
