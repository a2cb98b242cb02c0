"""The run configuration: one table of cases per knob, plus a property
over random flag/environment assignments (flag > env > default)."""

import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    MAX_WAIT_S,
    ConfigError,
    RunConfig,
    current,
    install,
)

ENV = {f.name: f.metadata["env"] for f in fields(RunConfig)}

#: field -> (default, env value, its parsed value, explicit value,
#: malformed value).  Two-valued fields take the default as their
#: explicit value, so a flag beating the env stays visible.
CASES = {
    "jobs": (1, "6", 6, 3, "many"),
    "shards": (None, "4", 4, 2, "lots"),
    "eventq": ("auto", "Calendar", "calendar", "heap", "splay"),
    "engine": ("conservative", " optimistic ", "optimistic", "conservative",
               "speculative"),
    "transport": ("pipe", "SHM", "shm", "pipe", "carrier-pigeon"),
    "shard_deadline": (120.0, "2.5", 2.5, 7.0, "soon"),
    "sweep_timeout": (600.0, "1.5", 1.5, 30.0, "ten minutes"),
    "full_scale": (False, "yes", True, False, "maybe"),
}
FIELDS = sorted(CASES)


def test_table_covers_exactly_the_eight_fields():
    assert set(CASES) == set(ENV) and len(ENV) == 8
    assert all(var.startswith("REPRO_") for var in ENV.values())


@pytest.mark.parametrize("name", FIELDS)
def test_default(name):
    default = CASES[name][0]
    assert getattr(RunConfig(), name) == default
    assert getattr(RunConfig.from_env(environ={}), name) == default


@pytest.mark.parametrize("name", FIELDS)
def test_env(name):
    _, raw, parsed, _, _ = CASES[name]
    assert getattr(RunConfig.from_env(environ={ENV[name]: raw}), name) == parsed


@pytest.mark.parametrize("name", FIELDS)
def test_explicit_over_env(name):
    _, raw, _, explicit, malformed = CASES[name]
    for env in (raw, malformed):  # a flag means the env is never read
        cfg = RunConfig.from_env(environ={ENV[name]: env}, **{name: explicit})
        assert getattr(cfg, name) == explicit


@pytest.mark.parametrize("name", FIELDS)
def test_empty_env_is_unset(name):
    for raw in ("", "   "):
        cfg = RunConfig.from_env(environ={ENV[name]: raw})
        assert getattr(cfg, name) == CASES[name][0]


@pytest.mark.parametrize("name", FIELDS)
def test_malformed_env_is_one_line_naming_the_variable(name):
    with pytest.raises(ConfigError) as info:
        RunConfig.from_env(environ={ENV[name]: CASES[name][4]})
    msg = str(info.value)
    assert msg.startswith(ENV[name] + " ") and "\n" not in msg


@pytest.mark.parametrize("name", FIELDS)
def test_malformed_explicit_names_the_field(name):
    with pytest.raises(ConfigError, match=f"^{name} "):
        RunConfig.from_env(environ={}, **{name: CASES[name][4]})
    with pytest.raises(ConfigError, match=f"^{name} "):
        RunConfig().replace(**{name: CASES[name][4]})


@pytest.mark.parametrize("name", ["jobs", "shards"])
def test_counts_must_be_positive_integers(name):
    for bad in (2.7, 1.9, 2.0, "2.7", "x", 0, -3, "0"):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: bad})
    with pytest.raises(ConfigError, match="at least 1"):
        RunConfig.from_env(environ={ENV[name]: "-1"})


@pytest.mark.parametrize("name", ["shard_deadline", "sweep_timeout"])
def test_waits_must_fit_a_poll_timeout(name):
    # poll(2) takes int milliseconds: anything longer than 2**31-1 ms
    # (or inf) crashed every sharded run over the pipe transport.
    for bad in ("inf", "nan", "0", "-1", "3000000", "2147484"):
        with pytest.raises(ConfigError, match=ENV[name]):
            RunConfig.from_env(environ={ENV[name]: bad})
    for bad in (math.inf, math.nan, MAX_WAIT_S + 1):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: bad})
    assert getattr(RunConfig(**{name: MAX_WAIT_S}), name) == MAX_WAIT_S
    cfg = RunConfig.from_env(environ={ENV[name]: "2000000"})
    assert getattr(cfg, name) == 2_000_000.0


def test_replace_keeps_none_and_validates():
    cfg = RunConfig(shards=2, transport="shm")
    assert cfg.replace(shards=None, transport=None) == cfg
    assert cfg.replace(engine="Optimistic").engine == "optimistic"
    with pytest.raises(TypeError):
        cfg.replace(ring_bytes=4096)  # no knob beyond the eight


def test_current_reads_env_unless_installed(monkeypatch):
    monkeypatch.setenv("REPRO_TRANSPORT", "shm")
    monkeypatch.setenv("REPRO_SHARDS", "3")
    assert current().transport == "shm" and current().shards == 3
    pinned = current().replace(shards=5)
    with install(pinned):
        monkeypatch.setenv("REPRO_SHARDS", "junk")  # not re-read
        assert current() is pinned
    monkeypatch.setenv("REPRO_SHARDS", "2")
    assert current().shards == 2


def _valid(name):
    """Strategy over (flag, env) for one field: each absent, empty or
    a valid value, so the expected winner is always defined."""
    _, raw, _, explicit, _ = CASES[name]
    return st.tuples(
        st.sampled_from([None, explicit]),
        st.sampled_from([None, "", raw]),
    )


@given(st.fixed_dictionaries({name: _valid(name) for name in FIELDS}))
def test_flag_beats_env_beats_default(assignment):
    flags = {n: flag for n, (flag, _env) in assignment.items()}
    environ = {ENV[n]: env for n, (_flag, env) in assignment.items()
               if env is not None}
    cfg = RunConfig.from_env(environ=environ, **flags)
    for name, (flag, env) in assignment.items():
        default, _, parsed, _, _ = CASES[name]
        expected = flag if flag is not None else (parsed if env else default)
        assert getattr(cfg, name) == expected, name
