"""The names the package exports, and where the helpers it no longer exports live."""

from __future__ import annotations

import inspect

import noeth
import noeth.errors


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
    for gone in ("translate_to_origin", "smallest_term", "monomial_keys_below"):
        assert gone not in noeth.__all__ and not hasattr(noeth, gone)
