import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet.errors import ValidationError
from choquet.generators import gen_disk
from choquet.space import (
    FiniteSpace,
    FunctionSystem,
    Measure,
    PhiFunction,
    as_field,
    basis_from_csv,
    embed,
    evaluate,
    load_instance,
    pair,
    system_from_dict,
    system_to_dict,
)


def test_validate_naturals_passes(naturals4):
    rep = naturals4.system.validate()
    assert rep.constants_ok and rep.separation_ok
    assert rep.constants_residual <= 1e-12


def test_validate_duplicate_columns_fail():
    sys_dup = FunctionSystem(FiniteSpace(("a", "b")), [[1.0, 1.0], [2.0, 2.0]])
    rep = sys_dup.validate()
    assert rep.constants_ok and not rep.separation_ok
    with pytest.raises(ValidationError):
        sys_dup.require_valid()


def test_validate_missing_constants_fail():
    sys_nc = FunctionSystem(FiniteSpace(("a", "b")), [[1.0, 2.0], [2.0, 4.0]])
    rep = sys_nc.validate()
    assert not rep.constants_ok
    assert rep.separation_ok


def _dense_min_separation(B):
    n = B.shape[1]
    if n == 1:
        return np.inf
    dist = np.max(np.abs(B[:, :, None] - B[:, None, :]), axis=0)
    dist[np.diag_indices(n)] = np.inf
    return float(dist.min())


def test_chunked_separation_matches_dense(monkeypatch):
    import choquet.space as space

    rng = np.random.default_rng(3)
    systems = [rng.normal(size=(rng.integers(1, 5), rng.integers(1, 30))) for _ in range(40)]
    near = rng.normal(size=(3, 12))
    near[:, 7] = near[:, 2] + 1e-12
    systems.append(near)
    disk = gen_disk(n_circle=64, n_interior_rings=2, degree=8).system.basis
    for cells in (space._SEPARATION_BLOCK_CELLS, 50):  # one block, then many
        monkeypatch.setattr(space, "_SEPARATION_BLOCK_CELLS", cells)
        for B in systems + [disk]:
            assert space._min_separation(B) == _dense_min_separation(B)


def test_validate_keeps_constants_coefficients():
    system = gen_disk(n_circle=16, n_interior_rings=1, degree=3).system
    coef = system.validate().constants_coeffs
    assert system.basis.T @ coef == pytest.approx(np.ones(system.n), abs=1e-9)


def test_embed_naturals(naturals4):
    assert embed(naturals4.system, 1) == pytest.approx([1.0, 0.5])
    with pytest.raises(ValidationError):
        embed(naturals4.system, 4)


def test_embed_disk_harmonic_basis():
    from choquet.generators import gen_disk

    inst = gen_disk(n_circle=8, n_interior_rings=0, degree=2)
    theta = 2 * np.pi * 3 / 8
    expect = [1.0, np.cos(theta), np.sin(theta), np.cos(2 * theta), np.sin(2 * theta)]
    assert embed(inst.system, 3) == pytest.approx(expect)


def test_evaluate_naturals(naturals4):
    assert evaluate(naturals4.system, [0.0, 1.0]) == pytest.approx([1, 0.5, 1 / 3, 0.25])
    assert evaluate(naturals4.system, [0.0, 0.0]) == pytest.approx([0.0] * 4)
    assert evaluate(naturals4.system, [1.0, -1.0]) == pytest.approx([0, 0.5, 2 / 3, 0.75])
    with pytest.raises(ValidationError):
        evaluate(naturals4.system, [1.0, 2.0, 3.0])


def test_pair_examples(naturals4):
    f = np.array([1.0, 0.5, 1 / 3, 0.25])
    assert pair(Measure.dirac(4, 2), f) == pytest.approx(1 / 3)
    assert pair(np.array([1 / 3, 0, 0, 2 / 3]), f) == pytest.approx(0.5)
    assert pair(np.full(4, 0.25), np.ones(4)) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        pair(np.ones(3), f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairing_consistency(data):
    # dirac-pairing the evaluated field equals the embed/coefficient product
    n = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(1, 5))
    vals = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    B = np.array(data.draw(st.lists(st.lists(vals, min_size=n, max_size=n),
                                    min_size=d, max_size=d)))
    coeffs = np.array(data.draw(st.lists(vals, min_size=d, max_size=d)))
    labels = tuple(f"p{j}" for j in range(n))
    system = FunctionSystem(FiniteSpace(labels), B)
    field = evaluate(system, coeffs)
    for j in range(n):
        lhs = pair(Measure.dirac(n, j), field)
        rhs = float(embed(system, j) @ coeffs)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_probability_measure_invariants():
    with pytest.raises(ValidationError):
        Measure.probability([0.5, 0.4])  # mass != 1
    with pytest.raises(ValidationError):
        Measure.probability([1.5, -0.5])
    mu = Measure.probability([0.25, 0.75])
    assert mu.weights.sum() == pytest.approx(1.0)
    # tiny negatives from LP output are clamped, not rejected
    mu2 = Measure.probability([1.0 + 1e-13, -1e-13])
    assert mu2.weights[1] == 0.0


def test_phi_function_values(naturals4):
    phi = PhiFunction([0.0, 1.0])
    assert phi.values(naturals4.system) == pytest.approx([1, 0.5, 1 / 3, 0.25])


def test_field_validation(naturals4):
    with pytest.raises(ValidationError):
        as_field(naturals4.system, [1.0, 2.0])
    with pytest.raises(ValidationError):
        as_field(naturals4.system, [1.0, np.inf, 0.0, 0.0])


def test_instance_json_round_trip(naturals4):
    doc = system_to_dict(naturals4.system, expected=naturals4.expected_dict())
    system, expected = system_from_dict(json.loads(json.dumps(doc)))
    assert system.space.labels == naturals4.system.space.labels
    assert np.allclose(system.basis, naturals4.system.basis)
    assert expected["boundary"] == ["1", "4"]


def test_load_instance_rejects_bad_json():
    with pytest.raises(ValidationError):
        load_instance(io.StringIO("not json"))
    with pytest.raises(ValidationError):
        load_instance(io.StringIO('{"labels": ["a"]}'))


def test_basis_from_csv():
    B = basis_from_csv(io.StringIO("1, 1, 1\n0.5, 0.25, 0\n"))
    assert B.shape == (2, 3)
    with pytest.raises(ValidationError):
        basis_from_csv(io.StringIO("1, 2\n3\n"))
    with pytest.raises(ValidationError):
        basis_from_csv(io.StringIO(""))


def test_space_invariants():
    with pytest.raises(ValidationError):
        FiniteSpace(())
    with pytest.raises(ValidationError):
        FiniteSpace(("a", "a"))
    with pytest.raises(ValidationError):
        FiniteSpace(("a",), coords=[[1.0, 2.0], [3.0, 4.0]])
