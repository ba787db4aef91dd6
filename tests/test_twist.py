import pytest

from affhecke import bimod
from affhecke.complexes import build_F
from affhecke.rings import RingElement
from affhecke.twist import (
    HomotopyProblem,
    _boundary_dimension,
    _delta_zero_complex,
    enddot_square_defect,
    phi_s,
    side_complexes,
    startdot_square_defect,
    verify_phi_squares_n2,
)


def _dh_plus_hd(p0, q0, entries):
    """dh + hd for entries h: p0 -> q0, one Morphism product at a time."""
    null_map = {}
    for (a, b), h in entries.items():
        for (b2, c), d in q0.diff.items():
            if b2 == b:
                term = d.compose(h)
                key = (a, c)
                null_map[key] = term if key not in null_map else null_map[key] + term
    for (a, b), d in p0.diff.items():
        for (b2, c), h in entries.items():
            if b2 == b:
                term = h.compose(d)
                key = (a, c)
                null_map[key] = term if key not in null_map else null_map[key] + term
    return null_map


def _phi(s):
    F, BsF, FBt = side_complexes(2, s)
    return F, phi_s(s, BsF, FBt)


def test_phi_is_pseudo_chain_map():
    for s in (0, 1):
        assert _phi(s)[1].is_pseudo_chain_map()


def test_phi_is_written_for_n2_only():
    F, BsF, FBt = side_complexes(3, 0)
    with pytest.raises(ValueError, match="n = 2"):
        phi_s(0, BsF, FBt)


def test_side_complexes_take_n():
    for n in (2, 3):
        for s in range(n):
            F, BsF, FBt = side_complexes(n, s)
            assert F.arithmetic.n == BsF.arithmetic.n == FBt.arithmetic.n == n
            assert {tuple(x.label)[0] for x in BsF.summands} == {s}
            assert {tuple(x.label)[-1] for x in FBt.summands} == {(s + 1) % n}


def test_phi_block_zeros():
    # zero on the B_s B_X column, nonzero on B_s B_{sX}
    for s in (0, 1):
        F, BsF, FBt = side_complexes(2, s)
        phi = phi_s(s, BsF, FBt)
        sources = {a for (a, b) in phi.entries}
        for summand in BsF.summands:
            word = tuple(summand.label)
            inner = word[1:]
            if inner == ():
                assert summand.sid not in sources
            if inner == (s,):
                assert summand.sid in sources


def test_phi_not_nulhomotopic():
    for s in (0, 1):
        F, BsF, FBt = side_complexes(2, s)
        phi = phi_s(s, BsF, FBt)
        problem = HomotopyProblem(BsF, FBt, 1, 0)
        sol, _ = problem.solve(dict(phi.entries))
        assert sol is None


def test_squares_commute_up_to_homotopy():
    for s in (0, 1):
        F, phi = _phi(s)
        for defect, src, tgt in (
            startdot_square_defect(s, F, phi), enddot_square_defect(F, phi)
        ):
            problem = HomotopyProblem(src, tgt, 1, 1)
            sol, nullity = problem.solve(dict(defect.entries))
            assert sol is not None
            entries = problem.solution_to_entries(sol)
            # the solved homotopy really satisfies dh + hd = defect mod delta
            p0, q0 = _delta_zero_complex(src), _delta_zero_complex(tgt)
            null_map = _dh_plus_hd(p0, q0, entries)
            for key in set(null_map) | set(defect.entries):
                lhs = null_map.get(key)
                rhs = defect.entries.get(key)
                if lhs is None:
                    assert bimod.subs_delta_zero(rhs).is_zero()
                elif rhs is None:
                    assert lhs.is_zero()
                else:
                    assert (lhs - bimod.subs_delta_zero(rhs)).is_zero()


def test_full_report():
    report = verify_phi_squares_n2()
    expected = {"homotopy_entries": 2, "kernel_dim": 0, "boundary_dim": 0}
    assert report == {
        (s, name): expected for s in (0, 1) for name in ("startdot", "enddot")
    }


def test_homotopy_spaces_with_kernels():
    # every kernel of the phi_s squares is 0, so only these spaces of
    # self-maps of F reach the nullspace basis and the rank of K -> dK - Kd
    f = build_F(2, "bimodule")
    for (drop, twist), nullity, boundary in (
        ((0, 2), 16, 3),
        ((1, 2), 4, 1),
        ((1, 4), 8, 2),
    ):
        assert HomotopyProblem(f, f, drop, twist).solve()[1] == nullity
        assert _boundary_dimension(f, f, drop, twist) == boundary


def test_perverse_homotopy_space_is_empty():
    # between perverse complexes every homotopy entry would be a bimodule
    # map of degree -1, and there are none: the solved space is zero
    for n in (2, 3):
        f = build_F(n, "bimodule")
        problem = HomotopyProblem(f, f, 1, 0)
        sol, nullity = problem.solve()
        assert sol is not None and nullity == 0


def test_f3_homotopy_space_nullities():
    f = build_F(3, "bimodule")
    for (drop, twist), nullity in (((1, 0), 0), ((0, 2), 78), ((1, 2), 24)):
        assert HomotopyProblem(f, f, drop, twist).solve()[1] == nullity


@pytest.mark.parametrize("n, size", [(2, 4), (3, 24)])
def test_nullspace_vectors_commute_mod_delta(n, size):
    # each nullspace vector is a bimodule map mod delta, checked entry by
    # entry against left multiplication; exact commutation fails here
    f = build_F(n, "bimodule")
    problem = HomotopyProblem(f, f, 1, 2)
    basis = problem.nullspace()
    assert len(basis) == size
    gens = [RingElement.x(n, i) for i in range(1, n + 1)]
    for vec in basis:
        entries = problem.solution_to_entries(vec)
        assert entries
        for mor in entries.values():
            for x in gens:
                lhs = bimod.left_mult(n, mor.tgt, x).compose(mor)
                rhs = mor.compose(bimod.left_mult(n, mor.src, x))
                assert bimod.subs_delta_zero(lhs - rhs).is_zero()
    # a nulhomotopic right-hand side dK + Kd has a solution
    p0, q0 = _delta_zero_complex(f), _delta_zero_complex(f)
    rhs = _dh_plus_hd(p0, q0, problem.solution_to_entries(basis[0]))
    assert any(not m.is_zero() for m in rhs.values())
    sol, _ = problem.solve(rhs)
    assert sol is not None
    got = _dh_plus_hd(p0, q0, problem.solution_to_entries(sol))
    for key in set(got) | set(rhs):
        if key in got and key in rhs:
            assert (got[key] - rhs[key]).is_zero()
        else:
            assert (got[key] if key in got else rhs[key]).is_zero()
