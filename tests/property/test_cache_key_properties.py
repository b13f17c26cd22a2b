"""Property tests for the result cache's key material and entry bytes.

``cache._canonical`` runs one plan per type (:func:`cache._plan`), built
the first time a type is seen.  ``reference`` below is the recursive
function the plans replaced, kept as their oracle the way the AST walker
backs the code fingerprint: for every value, the plan's form must equal
the reference form, and so must its canonical bytes — the bytes a run key
hashes.  A warm hit reads an entry as bytes and decodes it as ASCII, so
the second property checks that a stored entry is pure ASCII whatever
text its result holds.
"""

import tempfile
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Dict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import canonical
from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbeShape,
    ProbingScheme,
)
from repro.experiments import cache
from repro.experiments.runner import MbacConfig, ScenarioConfig, ScenarioResult
from repro.faults.model import FaultConfig
from repro.obs import ObsConfig
from repro.traffic.catalog import SOURCE_CATALOG
from repro.traffic.flowgen import FlowClass

_LEAF = frozenset({str, int, float, bool, type(None)})


def reference(value: Any) -> Any:
    """The recursive canonical form: every branch tested for every value."""
    if type(value) in _LEAF:
        return value
    if is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"__dataclass__": type(value).__name__}
        for f in fields(value):
            out[f.name] = reference(getattr(value, f.name))
        return out
    if isinstance(value, Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, (list, tuple)):
        return [reference(v) for v in value]
    if isinstance(value, dict):
        return {str(k): reference(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Colour(str, Enum):
    """A ``str``-mixin Enum: the enum branch, not the leaf branch."""

    RED = "red"
    BLUE = "blue"


class Count(int):
    """A subclass of a leaf type: passed through as a leaf."""


class Label(str):
    """A subclass of a leaf type: passed through as a leaf."""


texts = st.text(max_size=6)
names = st.text(min_size=1, max_size=6)
times = st.floats(min_value=0.0, max_value=1e4)
probabilities = st.floats(min_value=0.0, max_value=1.0)

flow_classes = st.builds(
    FlowClass,
    label=texts,
    spec=st.sampled_from(sorted(SOURCE_CATALOG.values(), key=lambda s: s.name)),
    weight=st.floats(min_value=0.0, max_value=10.0),
    epsilon=st.none() | probabilities,
    src=texts,
    dst=texts,
)

faults = st.builds(
    FaultConfig,
    flap_every=times,
    flap_downtime=st.floats(min_value=0.1, max_value=100.0),
    degrade_factor=st.floats(min_value=0.01, max_value=1.0),
    ge_loss_bad=probabilities,
    start=times,
    target=st.sampled_from(("bottleneck", "all")),
)

observability = st.builds(
    ObsConfig,
    metrics=st.booleans(),
    trace=st.booleans(),
    categories=st.lists(texts, max_size=3).map(tuple),
    sample_every=st.dictionaries(
        names, st.integers(min_value=1, max_value=1000), max_size=3
    ).map(lambda d: tuple(sorted(d.items()))),
    max_records=st.integers(min_value=0, max_value=10**6),
    timeseries=st.booleans(),
    timeseries_interval=st.floats(min_value=0.01, max_value=100.0),
)


@st.composite
def scenario_configs(draw: Any) -> ScenarioConfig:
    warmup = draw(times)
    return ScenarioConfig(
        source=draw(st.sampled_from(sorted(SOURCE_CATALOG))),
        classes=draw(st.none() | st.lists(flow_classes, max_size=3)),
        interarrival=draw(st.floats(min_value=0.01, max_value=10.0)),
        buffer_packets=draw(st.integers(min_value=1, max_value=10**4)),
        duration=warmup + draw(st.floats(min_value=1.0, max_value=1e4)),
        warmup=warmup,
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        topology=draw(st.sampled_from(("single", "parking-lot"))),
        prefill=draw(st.booleans()),
        faults=draw(st.none() | faults),
        obs=draw(st.none() | observability),
    )


designs = st.builds(
    EndpointDesign,
    signal=st.sampled_from(CongestionSignal),
    band=st.just(ProbeBand.IN_BAND),
    probing=st.sampled_from(ProbingScheme),
    epsilon=st.floats(min_value=0.0, max_value=0.99),
    queue_discipline=st.sampled_from(("drop-tail", "red")),
    probe_shape=st.sampled_from(ProbeShape),
    probe_timeout=st.none() | st.floats(min_value=0.1, max_value=10.0),
    probe_retries=st.integers(min_value=0, max_value=5),
) | st.builds(
    EndpointDesign,
    signal=st.sampled_from(CongestionSignal),
    band=st.sampled_from(ProbeBand),
    probing=st.sampled_from(ProbingScheme),
    renege_time=st.none() | st.floats(min_value=0.1, max_value=100.0),
)

specs = designs | st.builds(
    MbacConfig,
    target_utilization=st.floats(min_value=0.05, max_value=1.0),
    window_samples=st.integers(min_value=1, max_value=50),
) | st.none()

odd = st.one_of(
    st.sampled_from(Colour),
    st.floats().map(np.float64),  # a float subclass: a leaf
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),  # repr
    st.integers().map(Count),
    texts.map(Label),
    st.dictionaries(st.integers(), st.integers() | texts, max_size=4),
    st.sampled_from((ScenarioConfig, FaultConfig, Colour, int)),
)

plain = st.none() | st.booleans() | st.integers() | st.floats() | texts

values = st.recursive(
    plain | odd | scenario_configs() | specs,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=6,
)


@given(values)
@settings(max_examples=300, deadline=None)
def test_plan_form_equals_the_recursive_form(value):
    form = cache._canonical(value)
    expected = reference(value)
    assert form == expected
    assert canonical.dumps(form) == canonical.dumps(expected)


unicode_texts = st.text(max_size=12)  # any code point, controls included


@given(
    controller=unicode_texts,
    per_class=st.dictionaries(
        unicode_texts, st.dictionaries(unicode_texts, unicode_texts, max_size=2),
        max_size=3,
    ),
    trace=st.none() | st.lists(
        st.dictionaries(unicode_texts, unicode_texts, max_size=2).map(
            canonical.dumps
        ),
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_stored_entry_is_ascii_and_round_trips(controller, per_class, trace):
    result = ScenarioResult(
        controller_name=controller, seed=1, utilization=0.5,
        loss_probability=0.0, blocking_probability=0.25, offered=4,
        admitted=3, per_class=per_class, trace=trace,
    )
    config = ScenarioConfig(seed=1, duration=10.0, warmup=1.0)
    with tempfile.TemporaryDirectory() as directory:
        cache.set_cache_dir(directory)
        try:
            cache.store(config, None, result)
            with open(f"{directory}/{cache.run_key(config, None)}.json", "rb") as entry:
                assert entry.read().isascii()
            assert cache.lookup(config, None) == (result, "disk")
        finally:
            cache.set_cache_dir(None)
