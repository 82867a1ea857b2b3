"""Options no caller set are fixed values now; passing one is a TypeError."""

import inspect

import pytest

from psgroupoid import groupoid2d as g2
from psgroupoid import lie_dual as ld
from psgroupoid import pathspace as ps
from psgroupoid import poisson as po
from psgroupoid import radial3d as rad

RETIRED = [
    (g2.verify_axioms, "tolerances"),
    (g2.sample_points, "max_tries"),
    (g2.sample_composable_pairs, "max_tries"),
    (g2.invariants, "structure"),
    (ps.solve_gauss, "N"),
    (ps.GaugeField, "sample_box"),
    (ps.GaugeField, "seed"),
    (ps.gauge_flow, "residual_tol"),
    (ps.concatenate, "junction_eta_tol"),
    (ps.hamiltonian_check, "eps"),
    (ps.equivariance_defect, "eps"),
    (ps.equivariance_defect, "s_steps"),
    (ld.multiply_lie, "tol"),
    (ld.convention_self_test, "seed"),
    (rad.classify_fiber, "tol"),
    (rad.rescale, "c_margin"),
    (po.constant_structure, "name"),
    (po.two_domain, "name"),
    (po.rot_invariant3, "name"),
]


@pytest.mark.parametrize("fn, option", RETIRED,
                         ids=[f"{fn.__name__}-{option}" for fn, option in RETIRED])
def test_retired_option_is_a_type_error(fn, option):
    with pytest.raises(TypeError, match=option):
        inspect.signature(fn).bind_partial(**{option: None})
