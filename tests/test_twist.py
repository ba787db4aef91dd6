import pytest

from affhecke import bimod
from affhecke.complexes import build_F
from affhecke.twist import (
    HomotopyProblem,
    _boundary_dimension,
    enddot_square_defect,
    phi_s,
    side_complexes,
    startdot_square_defect,
    verify_phi_squares_n2,
)


def test_phi_is_pseudo_chain_map():
    for s in (0, 1):
        assert phi_s(s).is_pseudo_chain_map()


def test_phi_block_zeros():
    # zero on the B_s B_X column, nonzero on B_s B_{sX}
    for s in (0, 1):
        F, BsF, FBt = side_complexes(s)
        phi = phi_s(s)
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
        F, BsF, FBt = side_complexes(s)
        phi = phi_s(s)
        problem = HomotopyProblem(BsF, FBt, 1, 0)
        problem.add_dh_hd_equations(dict(phi.entries))
        sol, _ = problem.solve()
        assert sol is None


def test_squares_commute_up_to_homotopy():
    for s in (0, 1):
        for builder in (startdot_square_defect, enddot_square_defect):
            defect, src, tgt = builder(s)
            problem = HomotopyProblem(src, tgt, 1, 1)
            problem.add_dh_hd_equations(dict(defect.entries))
            sol, nullity = problem.solve()
            assert sol is not None
            entries = problem.solution_to_entries(sol)
            # the solved homotopy really satisfies dh + hd = defect mod delta
            from affhecke.twist import _delta_zero_complex

            null_map = {}
            p0, q0 = _delta_zero_complex(src), _delta_zero_complex(tgt)
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
