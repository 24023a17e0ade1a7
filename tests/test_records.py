"""The package's record classes: read-only, listed fields, bool equality, pickling."""

import inspect
import pickle

import numpy as np
import pytest

from qcoin.coin import FragmentedRun, toss_fragmented, uniform_schedule
from qcoin.estimators import Estimate, algorithm1
from qcoin.experiments import ExperimentConfig
from qcoin.hamiltonian import generate_random_ising_graph, generate_random_qrbm, unit_spectrum
from qcoin.noise import LayerSeries, NoiseFit


def _records():
    spectrum = unit_spectrum(generate_random_ising_graph(4, 5))
    schedule = uniform_schedule(spectrum, 1.0, 2, 1e-6)
    return [
        spectrum,
        generate_random_ising_graph(4, 5),
        generate_random_qrbm(2, 2, 3),
        schedule,
        toss_fragmented(schedule, 10, 3),
        algorithm1(0.5, 7, 100, 0.05, 1, reps=3),
        LayerSeries([10, 12, 14], [0.6, 0.58, 0.57], 100),
        NoiseFit(0.01, 0.001, 0.6, 0.01, 0.0, np.eye(2), 3),
        ExperimentConfig(),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]
# records that hold no arrays compare by value; the others by identity
VALUE_TYPES = {"IsingSpec", "ExperimentConfig"}


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_fields_are_the_constructor_parameters(record):
    cls = type(record)
    assert list(inspect.signature(cls).parameters) == list(cls.fields)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_is_read_only(record):
    before = repr(record)
    for name in (*record.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_repr_names_each_field(record):
    text = repr(record)
    assert text.startswith(type(record).__name__ + "(")
    for name in record.fields:
        assert f"{name}=" in text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_equality_is_a_bool_and_pickle_round_trips(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and repr(copy) == repr(record)
    equal = record == copy
    assert isinstance(equal, bool) and isinstance(record != copy, bool)
    assert record == record
    if type(record).__name__ in VALUE_TYPES:
        assert equal and hash(copy) == hash(record)
    else:
        assert not equal
        assert isinstance(hash(record), int)  # the identity hash: no array is hashed


def test_as_dict_lists_the_fields_in_order():
    config = ExperimentConfig(seed=3)
    doc = config.as_dict()
    assert list(doc) == list(ExperimentConfig.fields)
    assert doc["seed"] == 3 and doc["betas"] == config.betas


def test_result_records_hold_no_echo_of_their_arguments():
    # eps_r, the confidence 1 - delta and the estimator's name are what the
    # caller passed, and the step probabilities are the schedule's: the
    # result records keep only what the run produced
    assert Estimate.fields == ("value", "samples", "queries_per_sample", "rounds")
    assert FragmentedRun.fields == ("attempts", "successes", "queries", "step_executions")
