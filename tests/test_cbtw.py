import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import (AdditionParams, CbtwConfig, DomainError, btw_stabilize,
                       max_stable,
                       build_lattice, cbtw_add, cbtw_inverse_add,
                       cbtw_stabilize, cbtw_topple, decompose,
                       enumerate_recurrent, is_allowed_bruteforce,
                       is_allowed_cbtw, max_config, quantum_multiple,
                       sample_uniform_allowed, zero_config)
from sandpiles import btw
from sandpiles.experiments import rational_limit_test
from sandpiles.measures import sample_rational_limit_batch
from sandpiles.cbtw import FRAC_BITS, FRAC_MASK, _add_inplace, grid_scale, grid_units
from oracles import dense_add, dense_stabilize


def total_mass(lat, cfg):
    return cfg.quanta.sum() / (2 * lat.d) + cfg.frac.sum()


def grid_frac(lat, frac):
    """Fractional parts floored onto the fixed-point grid."""
    return np.floor(np.asarray(frac) * grid_scale(lat.d)) / grid_scale(lat.d)


def test_decompose_frozen(path2):
    cfg = decompose(path2, [0.8, 0.7])
    assert cfg.quanta.tolist() == [1, 1]
    assert np.allclose(cfg.frac, [0.3, 0.2])
    assert np.allclose(cfg.heights(), [0.8, 0.7])


def test_decompose_snaps_to_cell_boundary(path1):
    almost_half = np.nextafter(0.5, 0.0)
    cfg = decompose(path1, [almost_half])
    assert cfg.quanta.tolist() == [1]
    assert cfg.frac.tolist() == [0.0]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 32, 64])
def test_grid_round_trip_is_lossless(d):
    F = np.random.default_rng(d).integers(0, FRAC_MASK + 1, size=20000)
    F[:3] = [0, 1, FRAC_MASK]
    assert np.array_equal(grid_units(F / grid_scale(d), d), F)


def test_decompose_rejects_negative(path2):
    with pytest.raises(DomainError):
        decompose(path2, [-0.1, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_decompose_rejects_non_finite_and_overflowing(path2, bad):
    with pytest.raises(DomainError):
        decompose(path2, [bad, 0.2])


@given(st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_decompose_recompose_roundtrip(heights):
    lat = build_lattice([3])
    cfg = decompose(lat, heights)
    assert (cfg.quanta >= 0).all()
    assert (cfg.frac >= 0.0).all() and (cfg.frac < cfg.cell).all()
    assert np.allclose(cfg.heights(), heights, atol=1e-12)


def test_constructors(path2):
    z = zero_config(path2)
    assert z.quanta.tolist() == [0, 0] and z.frac.tolist() == [0.0, 0.0]
    m = max_config(path2)
    assert m.quanta.tolist() == [1, 1] and m.is_stable()


def test_topple_moves_only_quanta(path2):
    cfg = CbtwConfig(d=1, quanta=np.array([3, 0]), frac=np.array([0.1, 0.2]))
    new, legal = cbtw_topple(path2, cfg, 0)
    assert legal
    assert new.quanta.tolist() == [1, 1]
    assert new.frac.tolist() == [0.1, 0.2]
    stable_already, legal2 = cbtw_topple(path2, cfg, 1)
    assert not legal2
    assert stable_already.quanta.tolist() == [3, 0]


def test_stabilize_is_integer_stabilization_with_frozen_frac(grid33, rng):
    for _ in range(30):
        quanta = rng.integers(0, 10, size=9)
        frac = rng.uniform(0.0, 0.25, size=9)
        cfg = CbtwConfig(d=2, quanta=quanta, frac=frac)
        stable, od = cbtw_stabilize(grid33, cfg)
        q_ref, od_ref = btw_stabilize(grid33, quanta)
        assert np.array_equal(stable.quanta, q_ref)
        assert np.array_equal(od, od_ref)
        # bitwise identical fractional parts
        assert (stable.frac == frac).all()


def test_stabilize_matches_dense_oracle(path3, rng):
    for _ in range(40):
        heights = rng.uniform(0.0, 2.5, size=3)
        cfg = decompose(path3, heights)
        stable, od = cbtw_stabilize(path3, cfg)
        ref_h, ref_od = dense_stabilize(path3, heights, rng)
        assert np.array_equal(od, ref_od)
        assert np.allclose(stable.heights(), ref_h, atol=1e-9)


def test_add_example_frozen(path2):
    cfg = decompose(path2, [0.8, 0.7])
    new = cbtw_add(path2, cfg, 0, 0.3)
    assert new.quanta.tolist() == [1, 0]
    assert np.allclose(new.frac, [0.1, 0.2])
    assert np.allclose(new.heights(), [0.6, 0.2])


def test_add_zero_is_identity_on_stable(path2, rng):
    cfg = sample_uniform_allowed(path2, rng)
    new = cbtw_add(path2, cfg, 1, 0.0)
    assert np.array_equal(new.quanta, cfg.quanta)
    assert (new.frac == cfg.frac).all()


def test_add_carries_exact_cell_boundary(path2):
    cfg = CbtwConfig(d=1, quanta=np.array([0, 0]), frac=np.array([0.25, 0.0]))
    new = cbtw_add(path2, cfg, 0, 0.25)
    assert new.quanta.tolist() == [1, 0]
    assert new.frac.tolist() == [0.0, 0.0]


def test_add_validates_amount(path2):
    cfg = zero_config(path2)
    with pytest.raises(DomainError):
        cbtw_add(path2, cfg, 0, 1.0)
    with pytest.raises(DomainError):
        cbtw_add(path2, cfg, 0, -0.1)


def test_add_conserves_mass_up_to_outflow(grid22, rng):
    for _ in range(40):
        heights = rng.uniform(0.0, 1.0, size=4) * 0.99
        cfg = decompose(grid22, heights)
        x = int(rng.integers(4))
        u = float(rng.uniform(0.0, 1.0))
        new = cbtw_add(grid22, cfg, x, u)
        before = total_mass(grid22, cfg) + u
        after = total_mass(grid22, new)
        lost = before - after
        assert lost >= -1e-12
        # mass leaves only through boundary bonds, in whole multiples of 1/2d
        assert abs(lost * 2 * grid22.d - round(lost * 2 * grid22.d)) < 1e-9


def test_add_matches_dense_oracle(path3, rng):
    for _ in range(40):
        heights = rng.uniform(0.0, 1.0, size=3) * 0.999
        cfg = decompose(path3, heights)
        x = int(rng.integers(3))
        u = float(rng.uniform(0.0, 1.0))
        new = cbtw_add(path3, cfg, x, u)
        ref_h, _ = dense_add(path3, heights, x, u, rng)
        assert np.allclose(new.heights(), ref_h, atol=1e-9)


def test_tracked_add_matches_untracked(path2, rng):
    # A fixed amount does not drift: after N_x additions at each site x the
    # state is the closed form of the integer carry rule, F = (F0 + N U) mod
    # 2^50 and quanta = stab(q0 + ((F0 + N U) >> 50)) by abelianness.
    a = np.sqrt(2.0) - 1.0
    cfg = sample_uniform_allowed(path2, rng)
    F0 = grid_units(cfg.frac, 1)
    U = int(grid_units(a, 1))
    visits = np.zeros(2, dtype=np.int64)
    plain = cfg
    for _ in range(300):
        x = int(rng.integers(2))
        plain = cbtw_add(path2, plain, x, a)
        visits[x] += 1
    total = F0 + visits * U
    assert (plain.frac == (total & FRAC_MASK) / grid_scale(1)).all()
    expected, _ = btw_stabilize(path2, cfg.quanta + (total >> FRAC_BITS))
    assert np.array_equal(plain.quanta, expected)


def test_repeated_irrational_addition_is_exact(path1):
    cfg = decompose(path1, [0.123456789])
    quanta, frac = cfg.quanta.copy(), cfg.frac.copy()
    a = np.sqrt(2.0) - 1.0
    n = 10**5
    for _ in range(n):
        _add_inplace(path1, quanta, frac, 0, a)
    F0, U = int(grid_units(cfg.frac, 1)[0]), int(grid_units(a, 1))
    assert frac[0] == ((F0 + n * U) & FRAC_MASK) / grid_scale(1)


def test_inverse_add_roundtrip_both_ways(path2, rng):
    rec = enumerate_recurrent(path2)
    for _ in range(60):
        zeta = sample_uniform_allowed(path2, rng, rec)
        x = int(rng.integers(2))
        u = float(rng.uniform(0.0, 1.0))
        eta = cbtw_inverse_add(path2, zeta, x, u, recurrent=rec)
        back = cbtw_add(path2, eta, x, u)
        assert np.array_equal(back.quanta, zeta.quanta)
        assert (back.frac == zeta.frac).all()
        forward = cbtw_add(path2, zeta, x, u)
        orig = cbtw_inverse_add(path2, forward, x, u, recurrent=rec)
        assert np.array_equal(orig.quanta, zeta.quanta)
        assert (orig.frac == zeta.frac).all()


def test_inverse_add_roundtrip_beyond_enumeration(rng):
    lat = build_lattice([4, 4])
    for _ in range(10):
        quanta = btw_stabilize(lat, max_stable(lat) + rng.integers(0, 6, size=16))[0]
        frac = grid_frac(lat, rng.uniform(0.0, 0.25, size=16))
        zeta = CbtwConfig(d=2, quanta=quanta, frac=frac)
        x = int(rng.integers(16))
        u = float(rng.uniform(0.0, 1.0))
        back = cbtw_add(lat, cbtw_inverse_add(lat, zeta, x, u), x, u)
        assert np.array_equal(back.quanta, zeta.quanta)
        assert (back.frac == zeta.frac).all()
        orig = cbtw_inverse_add(lat, cbtw_add(lat, zeta, x, u), x, u)
        assert np.array_equal(orig.quanta, zeta.quanta)
        assert (orig.frac == zeta.frac).all()


def test_inverse_add_requires_allowed(path2):
    bad = zero_config(path2)
    with pytest.raises(DomainError):
        cbtw_inverse_add(path2, bad, 0, 0.3)


def test_inverse_add_runs_one_burning_test(monkeypatch):
    # One burning test and one relaxation, both on stabilize_from.
    lat = build_lattice([2, 3])
    zeta = cbtw_add(lat, sample_uniform_allowed(lat, np.random.default_rng(4)), 1, 0.4)
    calls, real = [], btw.stabilize_from

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(btw, "stabilize_from", counting)
    cbtw_inverse_add(lat, zeta, 1, 0.4)
    assert len(calls) == 2


def test_inverse_add_requires_stable(path2):
    cfg = CbtwConfig(d=1, quanta=np.array([2, 1]), frac=np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        cbtw_inverse_add(path2, cfg, 0, 0.3)


def test_allowed_cbtw_matches_integer_rule(path3, rng):
    for _ in range(60):
        quanta = rng.integers(0, 2, size=3)
        frac = rng.uniform(0.0, 0.5, size=3)
        cfg = CbtwConfig(d=1, quanta=quanta, frac=frac)
        assert is_allowed_cbtw(path3, cfg) == is_allowed_bruteforce(path3, quanta)


def test_allowed_cbtw_ignores_frac(path2):
    # mass 0.3 at the right site is not enough: only quanta count
    cfg = CbtwConfig(d=1, quanta=np.array([0, 0]), frac=np.array([0.0, 0.3]))
    assert not is_allowed_cbtw(path2, cfg)
    cfg2 = CbtwConfig(d=1, quanta=np.array([0, 1]), frac=np.array([0.0, 0.3]))
    assert is_allowed_cbtw(path2, cfg2)


def test_allowed_cbtw_requires_stable(path2):
    cfg = CbtwConfig(d=1, quanta=np.array([2, 0]), frac=np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        is_allowed_cbtw(path2, cfg)


def test_config_json_roundtrip_is_exact(path2, rng):
    cfg = sample_uniform_allowed(path2, rng)
    text = cfg.to_json()
    back = CbtwConfig.from_json(1, text)
    assert np.array_equal(back.quanta, cfg.quanta)
    assert (back.frac == cfg.frac).all()
    data = json.loads(text)
    assert set(data) == {"quanta", "frac"}


def test_config_json_validation(path2):
    with pytest.raises(DomainError):
        CbtwConfig.from_json(1, '{"quanta": [0, 0]}')
    with pytest.raises(DomainError):
        CbtwConfig.from_json(1, '{"quanta": [0, 0], "frac": [0.0, 0.9]}')
    with pytest.raises(DomainError):
        CbtwConfig.from_json(1, '{"quanta": [-1, 0], "frac": [0.0, 0.0]}')


def test_config_json_rejects_nan_frac():
    with pytest.raises(DomainError):
        CbtwConfig.from_json(1, '{"quanta": [0, 0], "frac": [NaN, 0.0]}')


def test_add_inplace_rejects_negative_frac(path2):
    quanta = np.zeros(2, dtype=np.int64)
    frac = np.array([-0.3, 0.0])
    with pytest.raises(DomainError):
        _add_inplace(path2, quanta, frac, 0, 0.1)


def test_addition_params():
    p = AdditionParams(0.25, 0.75)
    assert p.mode == "interval"
    fixed = AdditionParams(0.5, 0.5)
    assert fixed.mode == "fixed"
    assert fixed.draw(np.random.default_rng(0)) == 0.5
    assert (fixed.draw(np.random.default_rng(0), size=3) == 0.5).all()
    drawn = p.draw(np.random.default_rng(0), size=1000)
    assert ((drawn >= 0.25) & (drawn <= 0.75)).all()
    with pytest.raises(DomainError):
        AdditionParams(0.7, 0.3)
    with pytest.raises(DomainError):
        AdditionParams(0.2, 1.0)
    with pytest.raises(DomainError):
        AdditionParams(-0.1, 0.5)


def test_quantum_multiple():
    assert quantum_multiple(0.5, 1) == 1
    assert quantum_multiple(0.25, 2) == 1
    assert quantum_multiple(0.75, 2) == 3
    assert quantum_multiple(np.sqrt(2.0) - 1.0, 1) is None
    assert quantum_multiple(0.5 + 5e-14, 1) is None
    assert quantum_multiple(0.5 + 1e-9, 1) is None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_quantum_multiple_is_decided_on_the_grid(d):
    # 2^-45 of mass is 64 d grid units: inside a float tolerance of 1e-12,
    # but a chain adding it moves frac every step.
    for l in range(2 * d + 1):
        amount = l / (2 * d)
        assert quantum_multiple(amount, d) == l
        assert quantum_multiple(amount + 2.0**-45, d) is None
        assert quantum_multiple(amount - 2.0**-45, d) is None


@pytest.mark.parametrize("amount", [np.nan, np.inf, -np.inf])
def test_quantum_multiple_of_non_finite_amount_is_none(amount, path2):
    assert quantum_multiple(amount, 1) is None
    base = zero_config(path2)
    with pytest.raises(DomainError):
        sample_rational_limit_batch(path2, base, amount, np.random.default_rng(0), 4)
    with pytest.raises(DomainError):
        rational_limit_test(path2, base, amount, 2, 4, np.random.default_rng(0))
