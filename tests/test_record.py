"""The Record base of vacpair's value classes: construction, immutability,
equality, replace, and the perfbench tracer's patch of a generated __init__."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from vacpair import DomainError, PairConfiguration, pair_from_alignment
from vacpair._record import Record
from vacpair.specfun import AuxFunValue


class Point(Record):
    x: float
    y: float


class Handle(Record, eq=False):
    name: str


class Checked(Record):
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative")
        object.__setattr__(self, "value", float(self.value))


def _spans_module(monkeypatch):
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclass
    spec.loader.exec_module(module)
    return module


class TestConstruction:
    def test_positional_and_keyword(self):
        assert Point(1.0, 2.0) == Point(x=1.0, y=2.0) == Point(1.0, y=2.0)
        assert Point._fields == ("x", "y")
        assert (Point(1.0, 2.0).x, Point(1.0, 2.0).y) == (1.0, 2.0)

    @pytest.mark.parametrize("args, kwargs", [
        ((1.0,), {}),                    # missing
        ((1.0, 2.0, 3.0), {}),           # extra, positional
        ((1.0, 2.0), {"z": 3.0}),        # extra, by keyword
        ((1.0, 2.0), {"x": 1.0}),        # repeated
    ])
    def test_a_missing_extra_or_repeated_field_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_post_init_runs_and_may_set_fields(self):
        assert type(Checked(3).value) is float
        with pytest.raises(ValueError):
            Checked(-1.0)

    def test_the_generated_init_names_the_class(self):
        assert Point.__init__.__qualname__ == "Point.__init__"
        assert AuxFunValue.__init__.__qualname__ == "AuxFunValue.__init__"


class TestImmutability:
    def test_assignment_and_deletion_raise_attribute_error(self):
        p = Point(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 3.0
        with pytest.raises(AttributeError):
            p.other = 3.0
        with pytest.raises(AttributeError):
            del p.x
        assert p == Point(1.0, 2.0)

    def test_a_configuration_is_frozen(self):
        cfg = pair_from_alignment(1.0, 1e-4)
        with pytest.raises(AttributeError):
            cfg.mu = 1.0
        assert cfg.cos_ab == 1.0  # cached properties still fill in


class TestEquality:
    def test_by_field(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert Point(1.0, 2.0) != Point(2.0, 1.0)
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
        assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(0.0, 2.0)}) == 2

    def test_other_classes_are_never_equal(self):
        class Other(Record):
            x: float
            y: float
        assert Point(1.0, 2.0) != Other(1.0, 2.0)
        assert Point(1.0, 2.0) != (1.0, 2.0)

    def test_by_identity_with_eq_false(self):
        a, b = Handle("h"), Handle("h")
        assert a == a and a != b
        assert len({a, b}) == 2
        cfg = pair_from_alignment(1.0, 1e-4)
        assert cfg != pair_from_alignment(1.0, 1e-4)
        assert {cfg: 1}[cfg] == 1  # hashable although its fields are arrays

    def test_repr(self):
        assert repr(Point(1.0, 2.0)) == "Point(x=1.0, y=2.0)"
        value = AuxFunValue(1.0, 2.0, 3.0, 4.0, 0.0)
        assert repr(value) == ("AuxFunValue(f=1.0, g=2.0, f_double_prime=3.0, h=4.0, "
                               "abs_err_est=0.0)")


class TestReplace:
    def test_changes_only_the_given_fields(self):
        assert Point(1.0, 2.0).replace(y=5.0) == Point(1.0, 5.0)
        with pytest.raises(TypeError):
            Point(1.0, 2.0).replace(z=5.0)

    def test_reruns_post_init(self):
        assert type(Checked(1.0).replace(value=2).value) is float
        with pytest.raises(ValueError):
            Checked(1.0).replace(value=-2.0)
        cfg = pair_from_alignment(1.0, 1e-4)
        with pytest.raises(DomainError, match="x must be finite and positive"):
            cfg.replace(x=-1.0)

    def test_the_column_of_a_float_configuration(self):
        cfg = pair_from_alignment(2.5, 1e-4, 0.5, 0.25)
        column = cfg.column
        assert column.x.tolist() == [2.5] and not column.x.flags.writeable
        assert all(np.array_equal(getattr(cfg, f), getattr(column, f))
                   for f in ("n_a", "n_b", "r_hat", "mu"))
        vector = pair_from_alignment(np.array([2.5]), 1e-4)
        assert vector.column is vector


def test_the_span_tracer_patches_and_restores_the_configuration_init(monkeypatch):
    spans = _spans_module(monkeypatch)
    original = PairConfiguration.__init__
    tracer = spans.Tracer()
    tracer.install(layers=())
    try:
        assert PairConfiguration.__init__ is not original
        cfg = pair_from_alignment(1.0, 1e-4)
        cfg.column  # a second configuration, by replace
    finally:
        tracer.uninstall()
    assert PairConfiguration.__init__ is original
    assert [s.name for s in tracer.spans] == ["model.pair_configuration"] * 2
    assert pair_from_alignment(1.0, 1e-4).column.x.tolist() == [1.0]
    assert len(tracer.spans) == 2
