import numpy as np

from prodcoef.summation import numpy_sum


def test_equals_numpy_sum_at_every_length_to_300():
    # Lengths below 8, 8 to 128 and above 128 take numpy's three orders;
    # magnitudes far apart make a wrong order show in the last bits.
    rng = np.random.default_rng(5)
    for n in range(1, 301):
        rows = rng.random((4, n)) * 10.0 ** rng.integers(-6, 7, size=(4, n))
        expected = rows.sum(axis=-1)
        assert numpy_sum(rows[0].tolist()) == expected[0], n
        # Arrays sum elementwise, like a sum over each row's contiguous run.
        columns = [rows[:, j].copy() for j in range(n)]
        np.testing.assert_array_equal(numpy_sum(columns), expected, err_msg=str(n))
