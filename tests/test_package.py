"""The names the package exports, and where the helpers it no longer exports live."""

from __future__ import annotations

import inspect

import noeth
import noeth.errors
import noeth.orderings
import noeth.posdim


def test_every_exported_name_resolves():
    assert len(noeth.__all__) == len(set(noeth.__all__))
    for name in noeth.__all__:
        assert getattr(noeth, name) is not None, name


def test_error_classes_are_all_exported():
    errors = [
        name
        for name, value in vars(noeth.errors).items()
        if inspect.isclass(value) and issubclass(value, noeth.NoethError)
    ]
    assert errors and set(errors) <= set(noeth.__all__)


def test_helpers_stay_importable_from_their_modules():
    from noeth.orderings import as_module_order, is_elimination_for, leading_term
    from noeth.render import emit_json, operator_json, polynomial_json, ring_json

    helpers = (as_module_order, is_elimination_for, leading_term, emit_json, operator_json,
               polynomial_json, ring_json)
    for helper in helpers:
        assert callable(helper)
        assert helper.__name__ not in noeth.__all__
    for gone in ("translate_to_origin", "smallest_term", "monomial_keys_below", "backward_step",
                 "multiplicity_extended", "NormalPositionReport", "check_normal_position",
                 "cleanup_operators"):
        assert gone not in noeth.__all__ and not hasattr(noeth, gone)
    for gone in ("NormalPositionReport", "check_normal_position", "cleanup_operators"):
        assert not hasattr(noeth.posdim, gone)
    assert not hasattr(noeth.orderings, "is_product_compatible")


def test_the_four_constructions_share_one_signature():
    builds = (noeth.noetherian_forward, noeth.noetherian_backward, noeth.noetherian_linear,
              noeth.noetherian_positive)
    for build in builds:
        params = inspect.signature(build).parameters.values()
        assert [(p.name, p.default) for p in params] == [("G", inspect.Parameter.empty), ("center", None)]


def test_orderings_keeps_one_monic():
    assert not hasattr(noeth.orderings, "monic")
    assert callable(noeth.orderings.monic_by_key)
