"""The value-record semantics every record class keeps: construction,
defaults, immutability, equality, hashing, repr and __post_init__."""

import math

import pytest

from tmb.analysis import NodalDomain
from tmb.bessel import Eigenpair
from tmb.bubbles import BubbleDiagnostics
from tmb.cli import ExperimentConfig
from tmb.families import (
    FailedMember,
    FamilySpec,
    FormulaReport,
    MemberRecord,
    SequenceExperiment,
)
from tmb.nonlinearity import ProblemParams
from tmb.ode import SolverSettings
from tmb.shooting import RadialSolution

P = ProblemParams(1.0, 1.2, 0.5)
SPEC = FamilySpec(0, 1.0, (1e-2, 1e-3, 1e-4, 1e-5), (1.2,) * 4)
K0_RADII = dict(log_nodal_radii=(0.0,), log_peak_radii=(-math.inf,),
                peak_values=(2.0,), boundary_ru=(-1.5,))

# (class, leading field values in order, another value for the first field);
# fields after the leading ones keep their defaults
CASES = [
    (ProblemParams, (1.0, 1.2, 0.5), 2.0),
    (SolverSettings, (1e-8,), 1e-9),
    (RadialSolution, (P, None, *K0_RADII.values()), ProblemParams(2.0, 1.2, 0.5)),
    (NodalDomain, (3.9, 3.8, 1.9), 4.0),
    (BubbleDiagnostics, (((0.5, -0.1),), 1e-3, 0.2, 0.25), ()),
    (FamilySpec, (0, 1.0, (1e-2, 1e-3, 1e-4, 1e-5), (1.2,) * 4), 1),
    (MemberRecord, (0, 1e-2, 1.2, (0.0,), (-math.inf,), (2.0,), (-1.5,),
                    (3.9,), 1.9, 1e-12, 1e-11, (2.0,), (None,)), 1),
    (FailedMember, (3, 1e-5, 1.2, "NoSolutionInRangeError"), 4),
    (SequenceExperiment, (SPEC, (), ()), FamilySpec(1, 1.0, (1.0,) * 4,
                                                     (1.2,) * 4)),
    (FormulaReport, ("aaa1", True), "f4[1]"),
    (ExperimentConfig, ("verify",), "solve"),
    (Eigenpair, (1, 2.404825557695773), 2),
]
MUTABLE = {ExperimentConfig}


@pytest.mark.parametrize("cls, values, other", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_semantics(cls, values, other):
    names = tuple(cls.__annotations__)
    given = dict(zip(names, values))
    rec = cls(*values)
    assert rec == cls(**given)
    defaults = {name: getattr(cls, name) for name in names[len(values):]}
    # a list compare, so that a nan default equals itself
    assert [getattr(rec, name) for name in names] == [
        given[name] if name in given else defaults[name] for name in names]

    changed = cls(other, *values[1:])
    assert rec != changed and rec != object()
    assert repr(rec).startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in repr(rec) for name in names)

    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=0)

    if cls in MUTABLE:
        setattr(rec, names[0], other)
        assert rec == changed
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(cls(*values))
        with pytest.raises(AttributeError):
            setattr(rec, names[0], other)
        with pytest.raises(AttributeError):
            delattr(rec, names[0])
        assert getattr(rec, names[0]) == values[0]


def test_missing_field_raises():
    with pytest.raises(TypeError, match="lam"):
        ProblemParams(1.0, 1.2)


def test_extra_positional_field_raises():
    with pytest.raises(TypeError, match="takes 3 positional arguments but 4"):
        ProblemParams(1.0, 1.2, 0.5, 7.0)


@pytest.mark.parametrize("build, match", [
    (lambda: ProblemParams(1.0, 2.5, 0.5), "beta"),
    (lambda: FamilySpec(0, 1.0, (1e-2, 1e-3, 1e-4), (1.2,) * 3), "4 members"),
    (lambda: RadialSolution(P, None, **{**K0_RADII, "boundary_ru": (-1.5, 0.5)}),
     "nodal radius count"),
    (lambda: RadialSolution(P, None, **{**K0_RADII, "log_nodal_radii": (-0.5,)}),
     "unit boundary"),
])
def test_post_init_checks_still_raise(build, match):
    with pytest.raises(ValueError, match=match):
        build()
