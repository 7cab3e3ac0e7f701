import numpy as np
import pytest

from multicate import (
    DataError,
    Dataset,
    FactorModel,
    FitConfig,
    assemble_design,
    validate_dataset,
)


def test_validate_roundtrip_idempotent():
    X = [[1.0, 2.0], [1.0, -1.0], [1.0, 0.5]]
    Y = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
    T = [1, -1, 1]
    d1 = validate_dataset(X, Y, T)
    d2 = validate_dataset(d1.X, d1.Y, d1.T)
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.Y, d2.Y)
    assert np.array_equal(d1.T, d2.T)
    assert d1.n == 3 and d1.q == 2 and d1.n_features == 2


def test_validate_rejects_row_mismatch():
    with pytest.raises(DataError, match="row counts"):
        validate_dataset([[1.0], [1.0]], [[1.0]], [1, -1])


def test_validate_reports_nonfinite_location():
    X = np.ones((3, 2))
    Y = np.zeros((3, 2))
    Y[1, 1] = np.nan
    with pytest.raises(DataError, match=r"Y.*row 1.*column 1"):
        validate_dataset(X, Y, [1, -1, 1])


def test_nonfinite_report_names_the_first_entry_of_a_matrix():
    # several bad entries: the report names the first in row-major order
    X = np.ones((4, 3))
    X[3, 0], X[2, 2], X[2, 1] = np.nan, np.inf, np.nan
    with pytest.raises(DataError) as err:
        validate_dataset(X, np.zeros((4, 2)), [1, -1, 1, -1])
    assert str(err.value) == "X contains a non-finite entry at row 2, column 1"


def test_nonfinite_report_names_the_first_entry_of_a_vector():
    # a 1-d array reports its index as the row and column 0
    with pytest.raises(DataError) as err:
        validate_dataset(np.ones((4, 2)), np.zeros((4, 1)), [1, -1, 1, -1],
                         propensity=[0.5, 0.4, np.nan, -np.inf])
    assert str(err.value) == "propensity contains a non-finite entry at row 2, column 0"


def test_validate_single_arm_rejected():
    with pytest.raises(DataError, match="single-arm"):
        validate_dataset(np.ones((3, 1)), np.ones((3, 1)), [1, 1, 1])


def test_validate_bad_treatment_code():
    with pytest.raises(DataError, match="not valid under coding"):
        validate_dataset(np.ones((3, 1)), np.ones((3, 1)), [1, -1, 2])


def test_zero_one_coding_maps_and_checks():
    d = validate_dataset(np.ones((4, 1)), np.ones((4, 1)), [0, 1, 0, 1],
                         treatment_coding="zero_one")
    assert set(d.T) == {-1.0, 1.0}
    with pytest.raises(DataError, match="not valid under coding"):
        validate_dataset(np.ones((3, 1)), np.ones((3, 1)), [0, 1, 2],
                         treatment_coding="zero_one")


def test_propensity_positivity():
    with pytest.raises(DataError, match="positivity"):
        validate_dataset(np.ones((2, 1)), np.ones((2, 1)), [1, -1],
                         propensity=[0.5, 1.0])


def test_add_intercept():
    d = validate_dataset([[2.0], [3.0]], [[0.0], [0.0]], [1, -1], add_intercept=True)
    assert d.n_features == 2
    assert np.array_equal(d.X[:, 0], [1.0, 1.0])


def test_arrays_are_readonly():
    d = validate_dataset(np.ones((2, 1)), np.ones((2, 1)), [1, -1])
    with pytest.raises(ValueError):
        d.X[0, 0] = 5.0


def test_assemble_design_hand_value():
    # z_i = T_i x_i / 2: row with T=-1, x=(1,2) gives (-0.5, -1)
    d = validate_dataset([[1.0, 2.0], [1.0, 4.0]], [[0.0], [0.0]], [-1, 1])
    Z = assemble_design(d)
    assert np.allclose(Z[0], [-0.5, -1.0])
    assert np.allclose(Z[1], [0.5, 2.0])


def test_factor_model_validation():
    V = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    m = FactorModel(W=np.ones((4, 2)), V=V, C=np.zeros((5, 3)), rank=2)
    assert m.gamma.shape == (4, 3)
    assert np.allclose(m.gamma, m.W @ m.V.T)
    with pytest.raises(DataError, match="orthonormal"):
        FactorModel(W=np.ones((4, 2)), V=np.ones((3, 2)), C=np.zeros((5, 3)), rank=2)
    with pytest.raises(DataError, match="rank"):
        FactorModel(W=np.ones((1, 2)), V=V, C=np.zeros((5, 3)), rank=2)


def test_fit_config_validation():
    with pytest.raises(DataError):
        FitConfig(rank=0)
    with pytest.raises(DataError):
        FitConfig(rank=1, lambda_w=-1.0)
    with pytest.raises(DataError):
        FitConfig(rank=1, outer_tol=0.0)
    cfg = FitConfig(rank=2, lambda_w=0.5, phi_c=0.25)
    assert cfg.max_outer == 500 and cfg.max_inner == 100
    assert cfg.outer_tol == 1e-6 and cfg.inner_tol == 1e-8
