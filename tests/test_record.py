"""The package's records keep the frozen-dataclass contract they replaced.

Every record class is compared with a frozen dataclass of the same name,
fields and defaults: the same ``TypeError`` for each malformed call, the
same ``repr``, ``==`` and ``hash``. Records also refuse assignment and
deletion, validate in ``__post_init__`` (``_replace`` too), pickle, and
come back from a forked child through ``forked_map``.
"""

import contextlib
import dataclasses
import math
import pickle
import tempfile

import pytest

from epicost import (_forkwrite, config, costs, game, importation, optimize,
                     trajectory)
from epicost._record import Record
from epicost.costs import BorderCost, CostCurveSet, OutbreakCost, TransmissionCost
from epicost.errors import DomainError
from epicost.fixtures import fixture_path
from epicost.optimize import OptimizationResult

RECORDS = sorted({cls for module in (config, costs, game, importation, optimize, trajectory)
                  for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record},
                 key=lambda cls: cls.__name__)


def as_dataclass(cls):
    """A frozen dataclass with ``cls``'s name, fields and defaults."""
    specs = [(name, object, dataclasses.field(default=getattr(cls, name)))
             if hasattr(cls, name) else (name, object) for name in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def error(make, *args, **kwargs):
    with pytest.raises(TypeError) as caught:
        make(*args, **kwargs)
    return str(caught.value)


def binding_error(make, *args, **kwargs):
    """The ``TypeError`` of a call that does not bind, or None."""
    try:
        make(*args, **kwargs)
    except TypeError as exc:
        return str(exc)
    return None


def test_every_record_is_found():
    assert len(RECORDS) == 25


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_errors_match_a_dataclass(cls):
    twin = as_dataclass(cls)
    n = len(cls._fields)
    calls = [((), {}), ((None,) * (n + 1), {}), ((None,) * (n + 3), {"x": 1}),
             ((), {"not_a_field": 1}), ((None,), {cls._fields[0]: None}),
             ((), {cls._fields[-1]: None})]
    for args, kwargs in calls:
        want = binding_error(twin, *args, **kwargs)
        if want is not None:   # a call that binds is validated, by the record only
            assert error(cls, *args, **kwargs) == want


@pytest.mark.parametrize("cls, args", [
    (BorderCost, (1.0,)), (BorderCost, ()), (importation.ImportScenario, ()),
    (trajectory.ScheduleComparison, (None,) * 3)])
def test_missing_argument_lists_are_worded_as_python_words_them(cls, args):
    # one, two, three and many missing names
    assert error(cls, *args) == error(as_dataclass(cls), *args)


def test_missing_argument_wording():
    assert error(BorderCost).endswith(
        "missing 2 required positional arguments: 'b0' and 'i_free'")
    assert error(importation.ImportScenario).endswith(
        "missing 3 required positional arguments: 'population', 'infected', and 'travelers'")


def test_repr_eq_hash_match_a_dataclass():
    ct = TransmissionCost(1.0, 0.5, 2.0, 0.1, 3.0, 1.5)
    twin = as_dataclass(TransmissionCost)(1.0, 0.5, 2.0, 0.1, 3.0, 1.5)
    assert repr(ct) == repr(twin)
    assert hash(ct) == hash(twin) == hash(dataclasses.astuple(twin))
    assert ct == TransmissionCost(c0=1.0, tti_slope=0.5, tti_capacity=2.0,
                                  breakdown_jump=0.1, wide_slope=3.0, wide_exponent=1.5)
    assert ct != ct._replace(c0=2.0)


def test_a_record_equals_only_its_own_class():
    ct = TransmissionCost(1.0)
    assert ct != ct._values()
    assert ct._values() != ct
    assert OutbreakCost(0.0, 1.0) != CostCurveSet(ct, BorderCost(1.0, 1.0))
    with pytest.raises(TypeError):
        iter(ct)


def test_defaults_and_field_order():
    assert CostCurveSet._fields == ("transmission", "border", "outbreak",
                                   "import_multiplier")
    curves = CostCurveSet(TransmissionCost(1.0), BorderCost(2.0, 4.0))
    assert curves.outbreak == OutbreakCost() and curves.import_multiplier == 1.0
    # a record extending a plain class takes its fields from its own annotations
    assert config.ScenarioConfig._fields == ("regions", "links", "solver", "dynamics", "raw")
    assert game.GameState._fields == ("regions", "links")


def test_a_subclass_appends_its_fields():
    class Tagged(OutbreakCost):
        tag: str = "x"

    tagged = Tagged(1.0, 2.0, "y")
    assert Tagged._fields == ("per_case", "exponent", "tag")
    assert repr(tagged) == f"{Tagged.__qualname__}(per_case=1.0, exponent=2.0, tag='y')"
    with pytest.raises(DomainError):   # the parent's validation still runs
        Tagged(-1.0)


def test_unshown_field_is_compared_but_not_shown():
    cfg = config.load_config(fixture_path("two_region_symmetric"))
    assert "raw=" not in repr(cfg) and repr(cfg).startswith("ScenarioConfig(regions=")
    assert cfg == cfg._replace()
    assert cfg != cfg._replace(raw={})


def test_assignment_and_deletion_raise():
    ct = TransmissionCost(1.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'c0'"):
        ct.c0 = 2.0
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        ct.other = 2.0
    with pytest.raises(AttributeError, match="cannot delete field 'c0'"):
        del ct.c0
    assert ct.c0 == 1.0


def test_validation_runs_on_construction_and_replace():
    with pytest.raises(DomainError, match="c0 must be >= 0"):
        TransmissionCost(-1.0)
    with pytest.raises(DomainError, match="i_free must be > 0"):
        BorderCost(1.0, 4.0)._replace(i_free=0.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'i_fre'"):
        BorderCost(1.0, 4.0)._replace(i_fre=1.0)


def test_asdict_is_one_level_deep():
    curves = CostCurveSet(TransmissionCost(1.0), BorderCost(2.0, 4.0))
    assert curves._asdict() == {"transmission": curves.transmission,
                                "border": curves.border, "outbreak": curves.outbreak,
                                "import_multiplier": 1.0}


RESULT = OptimizationResult("imports", 0.25, 2.9375, optimize.INTERIOR, -0.0)


def test_pickle_round_trip():
    scenario = importation.ImportScenario(100, 10, 5)
    for record in (RESULT, scenario, CostCurveSet(TransmissionCost(1.0, tti_capacity=math.inf),
                                                  BorderCost(2.0, 4.0))):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and repr(back) == repr(record)
        with pytest.raises(AttributeError):
            back.x = 1


def test_records_come_back_from_forked_children():
    def made(k, spool):
        return RESULT._replace(argument=float(k))

    with contextlib.ExitStack() as stack:
        spools = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(3)]
        got = _forkwrite.forked_map(made, 6, spools)
    assert got == [made(k, None) for k in range(6)]
    assert [type(r) for r in got] == [OptimizationResult] * 6
