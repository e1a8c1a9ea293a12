"""Tests for the content-addressed result cache (repro.core.cache).

Covers hit-after-warm equivalence against a cold run (sha256 record
digests), invalidation on fingerprint change, corrupt-index tolerance (a
truncated tail recovers, like the sweep journal), the ``REPRO_NO_CACHE=1``
bypass, what may enter a key (numpy values key as native ones, a value
whose text is a memory address is refused), a runner's key tracking its
constants, names and defaults whatever the hash seed — plus a warm rerun
of a representative latency-load grid >= 10x faster than cold while
bit-identical.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import _openloop_runner
from repro.analysis.io import read_jsonl, record_digest
from repro.classes import TrafficClass
from repro.config import NetworkConfig
from repro.core.cache import (
    ResultCache,
    cache_disabled,
    cache_salt,
    code_fingerprint,
    fingerprint,
    point_key,
    provenance,
    resolve_cache,
    runner_spec,
    verify_entries,
)
from repro.core.parallel import SweepLedger, enumerate_points, run_sweep
from repro.core.reply import FixedReply


#: A small-but-real latency-load grid (fig01 shape): 4x4 mesh, three loads.
GRID_CFG = NetworkConfig(k=4, n=2, seed=5)
GRID_AXES = {"router_delay": (1, 2)}
GRID_EXTRA = {"rate": (0.05, 0.1, 0.2)}
GRID_RUNNER = functools.partial(_openloop_runner, warmup=100, measure=200, drain_limit=2000)


def grid_sweep(cache=None, **kw):
    return run_sweep(
        GRID_CFG, GRID_AXES, GRID_RUNNER, extra_axes=GRID_EXTRA, cache=cache, **kw
    )


class TestFingerprints:
    def test_code_fingerprint_covers_hot_paths(self):
        digests = code_fingerprint()
        assert "config.py" in digests
        assert "rng.py" in digests
        assert "core/engine.py" in digests
        assert "network/router.py" in digests
        # modules that compute or shape record fields outside the simulator
        assert "classes.py" in digests
        assert "analysis/stats.py" in digests
        # CLI wiring and transport cannot change a record: deliberately unsalted
        assert "__main__.py" not in digests
        assert not any(p.startswith("service/") for p in digests)

    def test_salt_covers_every_module_a_driver_imports(self):
        """An edit to any module on the way to a record must change the salt.

        A fresh interpreter runs one open-loop point and one batch point,
        then reports every ``repro`` module it ended up importing that
        ``code_fingerprint`` does not digest.
        """
        script = textwrap.dedent(
            """
            import pathlib, sys
            from repro.config import NetworkConfig
            from repro.core.cache import code_fingerprint
            from repro.core.closedloop import BatchSimulator
            from repro.core.openloop import OpenLoopSimulator

            cfg = NetworkConfig(k=4, n=2, seed=1)
            OpenLoopSimulator(cfg, warmup=20, measure=40, drain_limit=400).run(0.1)
            BatchSimulator(cfg, batch_size=5, max_outstanding=2).run()
            import repro
            root = pathlib.Path(repro.__file__).resolve().parent
            salted = code_fingerprint()
            for name, mod in sorted(sys.modules.items()):
                path = getattr(mod, "__file__", None)
                if path and (name == "repro" or name.startswith("repro.")):
                    rel = pathlib.Path(path).resolve().relative_to(root).as_posix()
                    if rel not in salted:
                        print(rel)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == []

    def test_salt_is_stable_and_env_pinnable(self, monkeypatch):
        assert cache_salt() == cache_salt()
        monkeypatch.setenv("REPRO_CACHE_SALT", "pinned")
        assert cache_salt() == "pinned"

    def test_fingerprint_changes_with_payload_and_salt(self):
        a = fingerprint({"x": 1}, salt="s")
        assert a == fingerprint({"x": 1}, salt="s")
        assert a != fingerprint({"x": 2}, salt="s")
        assert a != fingerprint({"x": 1}, salt="t")

    def test_fingerprint_is_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}, salt="s") == fingerprint(
            {"b": 2, "a": 1}, salt="s"
        )

    def test_runner_spec_distinguishes_runners(self):
        def f(cfg):
            return {}

        def g(cfg):
            return {"other": 1}

        assert runner_spec(f) != runner_spec(g)

    @pytest.mark.parametrize(
        "before, after",
        [
            ("def run(cfg):\n    return cfg * 100\n", "def run(cfg):\n    return cfg * 200\n"),
            ("def run(cfg):\n    return cfg.warmup\n", "def run(cfg):\n    return cfg.measure\n"),
            (
                "def run(cfg, warmup=100):\n    return warmup\n",
                "def run(cfg, warmup=200):\n    return warmup\n",
            ),
            (
                "def run(cfg, *, warmup=100):\n    return warmup\n",
                "def run(cfg, *, warmup=200):\n    return warmup\n",
            ),
            (
                "def run(cfg):\n    return [x * 2 for x in cfg]\n",
                "def run(cfg):\n    return [x * 3 for x in cfg]\n",
            ),
        ],
        ids=["constant", "attribute", "default", "kwdefault", "comprehension"],
    )
    def test_runner_spec_tracks_edits_that_keep_bytecode(self, before, after):
        """Same name, same bytecode: an edited constant, name or default is a new runner."""

        def compiled(source):
            namespace = {"__name__": "edited"}
            exec(source, namespace)
            return namespace["run"]

        assert compiled(before).__code__.co_code == compiled(after).__code__.co_code
        assert runner_spec(compiled(before)) == runner_spec(compiled(before))
        assert runner_spec(compiled(before)) != runner_spec(compiled(after))

    def test_runner_spec_is_independent_of_hash_seed(self):
        """A client and a worker compute the spec in different interpreters."""
        script = textwrap.dedent(
            """
            import json
            from repro.core.cache import runner_spec

            def run(cfg):
                return cfg.kind in {"curve", "batch", "cmp", "trace", "barrier", "sat"}

            print(json.dumps(runner_spec(run)))
            print(repr(run.__code__.co_consts))
            """
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
                env={
                    **os.environ,
                    "PYTHONPATH": os.pathsep.join(sys.path),
                    "PYTHONHASHSEED": seed,
                },
            ).stdout.splitlines()
            for seed in ("0", "1", "2")
        ]
        assert len({spec for spec, _ in outputs}) == 1
        # the set constant's own order did move, so the spec is what held still
        assert len({consts for _, consts in outputs}) > 1

    def test_runner_spec_partial_and_provenance(self):
        part = functools.partial(_openloop_runner, warmup=10, measure=20, drain_limit=30)
        spec = runner_spec(part)
        dotted, kwargs = provenance(spec)
        assert dotted == "repro.__main__:_openloop_runner"
        assert kwargs == {"warmup": 10, "measure": 20, "drain_limit": 30}
        # outer partial bindings shadow inner ones, like partial.__call__
        outer = functools.partial(part, warmup=99)
        _, merged = provenance(runner_spec(outer))
        assert merged["warmup"] == 99
        # positional partial args are not reconstructible from keywords
        assert provenance(runner_spec(functools.partial(_openloop_runner, 1))) == (None, {})

    def test_point_key_varies_with_config_kwargs_runner(self):
        spec = {"runner": "m:f"}
        base = point_key({"k": 4}, {"rate": 0.1}, spec, salt="s")
        assert base == point_key({"k": 4}, {"rate": 0.1}, spec, salt="s")
        assert base != point_key({"k": 8}, {"rate": 0.1}, spec, salt="s")
        assert base != point_key({"k": 4}, {"rate": 0.2}, spec, salt="s")
        assert base != point_key({"k": 4}, {"rate": 0.1}, {"runner": "m:g"}, salt="s")


#: One class registry, spelled four ways (``parse_classes`` normalises them).
CLASS_SPELLINGS = (
    "hi:priority=1,lo:share=0.5",
    "hi:priority=1+lo:share=0.5",
    (TrafficClass("hi", priority=1), TrafficClass("lo", share=0.5)),
    [{"name": "hi", "priority": 1}, {"name": "lo", "share": 0.5}],
)

_SCALARS = st.one_of(
    st.integers(0, 2**64 - 1), st.floats(0, 1), st.text("abc", max_size=3), st.none()
)
_KWARGS = st.dictionaries(
    st.sampled_from(["rate", "window", "mode", "depth"]),
    st.one_of(_SCALARS, st.tuples(_SCALARS, _SCALARS), st.lists(_SCALARS, max_size=3)),
)


def _respell(obj):
    """The same value as another caller might hand it in: dicts in reverse
    insertion order, tuples as lists and lists as tuples, numbers as numpy
    scalars."""
    if isinstance(obj, dict):
        return {k: _respell(v) for k, v in reversed(list(obj.items()))}
    if isinstance(obj, (tuple, list)):
        return (list if isinstance(obj, tuple) else tuple)(_respell(v) for v in obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return np.int64(obj) if obj < 2**63 else np.uint64(obj)
    return np.float64(obj) if isinstance(obj, float) else obj


def _changed(value):
    """A value of the same kind that is not ``value``."""
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, (tuple, list)):
        return [*value, "extra"]
    return f"{value}x"


class TestPointKeyProperty:
    @given(
        fields=st.fixed_dictionaries(
            {
                "k": st.integers(2, 8),
                "num_vcs": st.integers(2, 4),
                "router_delay": st.integers(1, 8),
                "routing": st.sampled_from(["dor", "val"]),
                "bimodal_long_fraction": st.floats(0, 1),
                "seed": st.integers(0, 2**64 - 1),
            }
        ),
        spellings=st.tuples(st.sampled_from(CLASS_SPELLINGS), st.sampled_from(CLASS_SPELLINGS)),
        kwargs=_KWARGS,
        bindings=st.dictionaries(st.sampled_from(["warmup", "measure"]), st.integers(0, 500)),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_key_ignores_spelling_and_separates_points(
        self, fields, spellings, kwargs, bindings, data
    ):
        config = asdict(NetworkConfig(**fields, classes=spellings[0]))
        spec = runner_spec(functools.partial(_openloop_runner, **bindings))
        key = point_key(config, kwargs, spec, salt="s")
        assert len(key) == 64
        # Same point, spelled differently: same key.
        respelled = asdict(NetworkConfig(**fields, classes=spellings[1]))
        assert key == point_key(_respell(respelled), _respell(kwargs), _respell(spec), salt="s")
        # ... and the key of the entry as it reads back from a store line.
        on_disk = json.loads(json.dumps({"config": config, "kwargs": kwargs}))
        assert key == point_key(on_disk["config"], on_disk["kwargs"], spec, salt="s")
        # Any one thing different: another key.
        name = data.draw(st.sampled_from(sorted(config)), label="config field")
        assert key != point_key({**config, name: _changed(config[name])}, kwargs, spec, salt="s")
        name = data.draw(st.sampled_from(sorted(kwargs) + ["new"]), label="kwarg")
        other = {**kwargs, name: _changed(kwargs.get(name))}
        assert key != point_key(config, other, spec, salt="s")
        rebound = functools.partial(_openloop_runner, **{**bindings, "drain_limit": 7})
        assert key != point_key(config, kwargs, runner_spec(rebound), salt="s")
        assert key != point_key(config, kwargs, spec, salt="t")


def test_point_key_of_pinned_inputs_is_stable():
    """A key's bytes are part of the on-disk format: the same inputs under
    the same salt key to this literal in every version that keeps the
    format (numpy and native values, tuples, ``classes`` spelling)."""
    config = asdict(NetworkConfig(k=4, n=2, seed=2**63 + 5, classes="user:share=3+os:priority=1"))
    kwargs = {"rate": np.float64(0.25), "window": (10, np.int32(20)), "mode": "fast"}
    spec = {"partial_of": {"runner": "m:f", "code_crc": 7}, "args": [], "kwargs": {"warmup": 100}}
    assert (
        point_key(config, kwargs, spec, salt="pinned")
        == "8ed67698f7b242f7a772640cfc087486db1e6e760e1bbcc285c956cba4a58cdd"
    )


def _numpy_default(obj):
    """The JSON fallback written against an imported numpy, as the cache and
    the wire each carried it before they shared ``json_default``."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


_NUMPY_LEAVES = st.one_of(
    st.integers(-(2**31), 2**31 - 1).flatmap(
        lambda v: st.sampled_from([np.int64(v), np.int32(v), int(v)])
    ),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(allow_nan=False, width=32).flatmap(
        lambda v: st.sampled_from([np.float64(v), np.float32(v), v])
    ),
    st.booleans().flatmap(lambda v: st.sampled_from([np.bool_(v), v])),
    st.lists(st.integers(-5, 5), max_size=4).map(np.array),
    st.lists(st.floats(-1, 1), max_size=3).map(np.array),
    st.lists(st.booleans(), max_size=3).map(np.array),
    st.text("ab", max_size=2),
    st.none(),
)
_NUMPY_TREES = st.recursive(
    _NUMPY_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(st.text("xyz", max_size=2), children, max_size=3),
    ),
    max_leaves=10,
)


class TestSharedJsonDefault:
    """One fallback (``analysis.io.json_default``) behind keys, store lines
    and the wire, which reads numpy off ``sys.modules`` instead of importing it."""

    @given(tree=_NUMPY_TREES)
    @settings(max_examples=200, deadline=None)
    def test_same_text_as_the_numpy_importing_fallback(self, tree):
        from repro.analysis.io import json_default

        for options in ({}, {"sort_keys": True, "separators": (",", ":")}):
            ours = json.JSONEncoder(default=json_default, **options).encode(tree)
            assert ours == json.JSONEncoder(default=_numpy_default, **options).encode(tree)

    def test_same_text_with_numpy_not_loaded(self):
        """Without numpy in the process every value takes the ``str`` path."""
        script = textwrap.dedent(
            """
            import json, sys
            from fractions import Fraction
            from repro.analysis.io import json_default
            tree = {"f": Fraction(1, 3), "s": {1, 2}, "n": [1, 2.5, None, (3, "x")]}
            print(json.JSONEncoder(default=json_default).encode(tree))
            print("numpy" in sys.modules)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.returncode == 0, out.stderr
        from fractions import Fraction

        tree = {"f": Fraction(1, 3), "s": {1, 2}, "n": [1, 2.5, None, (3, "x")]}
        assert out.stdout.splitlines() == [
            json.JSONEncoder(default=_numpy_default).encode(tree),
            "False",
        ]


class _Plain:
    """A value with the default ``object.__repr__``: its text is its address."""

    def method(self):
        return 0


def _local_function(cfg):
    return {}


class TestAddressValuedKeys:
    """A value whose text holds its memory address never enters a key: such
    a key misses in every other process and, as addresses are reused, can
    name another value in this one."""

    @pytest.mark.parametrize(
        "value, type_name",
        [(_Plain(), "_Plain"), (_local_function, "function"), (_Plain().method, "method")],
    )
    def test_runner_binding_is_refused(self, value, type_name):
        with pytest.raises(TypeError, match=type_name):
            runner_spec(functools.partial(_openloop_runner, hook=value))
        with pytest.raises(TypeError, match=type_name):
            runner_spec(functools.partial(_openloop_runner, value))

    def test_point_kwarg_and_config_value_are_refused(self):
        spec = {"runner": "m:f"}
        with pytest.raises(TypeError, match="_Plain"):
            point_key({"k": 4}, {"hook": _Plain()}, spec, salt="s")
        with pytest.raises(TypeError, match="_Plain"):
            point_key({"k": 4, "extra": [_Plain()]}, {}, spec, salt="s")
        with pytest.raises(TypeError, match="function"):
            fingerprint({"x": _local_function}, salt="s")

    def test_cached_sweep_over_an_address_valued_axis_raises(self, tmp_path):
        def runner(cfg, *, hook):
            return {"v": 1}

        axis = {"hook": (_Plain(),)}
        with pytest.raises(TypeError, match="_Plain"):
            run_sweep(GRID_CFG, {}, runner, extra_axes=axis, cache=tmp_path / "c")
        # uncached, nothing is keyed
        assert run_sweep(GRID_CFG, {}, runner, extra_axes=axis)[0]["v"] == 1

    def test_store_lines_and_the_wire_stay_lenient(self, tmp_path):
        from repro.service import protocol

        store = ResultCache(tmp_path / "c")
        store.put("k", {"v": 1}, {"note": _Plain()})
        assert "_Plain object at 0x" in store.store_path.read_text()
        assert b"_Plain object at 0x" in protocol.encode({"type": "x", "o": _Plain()})


#: The paper's four reply models, as runner bindings or axis values.
_REPLY_MODELS = (
    "ImmediateReply()",
    "FixedReply(20)",
    "ProbabilisticReply(20, 300, 0.1)",
    "PerClassReply({1: FixedReply(50)}, ProbabilisticReply())",
)


class TestReplyModelKeys:
    def test_fixed_reply_bindings_key_by_latency(self):
        """Fifty alternating FixedReply(20)/(21) bindings: one key per
        latency, never one for both (their addresses recur)."""
        keys: dict[int, set] = {20: set(), 21: set()}
        for i in range(50):
            latency = 20 + i % 2
            spec = runner_spec(functools.partial(_openloop_runner, reply_model=FixedReply(latency)))
            keys[latency].add(point_key({"k": 4}, {}, spec, salt="s"))
        assert len(keys[20]) == len(keys[21]) == 1
        assert keys[20] != keys[21]

    def test_reply_model_keys_match_across_interpreters(self):
        script = textwrap.dedent(
            f"""
            import functools
            from repro.__main__ import _openloop_runner
            from repro.core.cache import point_key, runner_spec
            from repro.core.reply import *
            for text in {_REPLY_MODELS!r}:
                model = eval(text)
                spec = runner_spec(functools.partial(_openloop_runner, reply_model=model))
                print(point_key({{"k": 4}}, {{"reply": model}}, spec, salt="s"))
            """
        )

        def keys():
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            assert out.returncode == 0, out.stderr
            return out.stdout.split()

        first = keys()
        assert len(set(first)) == len(_REPLY_MODELS)
        assert keys() == first


class KeySpy(ResultCache):
    """A store that notes every key it is asked for."""

    def __init__(self, path):
        super().__init__(path)
        self.asked: list[str] = []

    def get(self, key):
        self.asked.append(key)
        return super().get(key)


@pytest.mark.parametrize(
    "axes, extra",
    [
        ({"router_delay": (1, 2)}, {"rate": (0.1, 0.2)}),  # derived seeds
        ({"seed": (3, 2**64 - 1), "num_vcs": (2, 4)}, {"rate": (0.1,)}),  # a seed axis
        ({}, {"window": ((10, 20), (30, 40))}),  # no config axis at all
        (  # numpy values on both kinds of axis
            {"router_delay": (np.int64(1), np.int64(2)), "bimodal_long_fraction": (np.float64(0.25),)},
            {"rate": (np.float64(0.1),), "depth": (np.int32(3),)},
        ),
    ],
)
def test_prefill_key_is_point_key_of_the_flattened_config(tmp_path, axes, extra):
    """The sweep path digests a combination once and hashes only kwargs and
    seed per point; the standalone ``point_key`` of the point's flattened
    config (``asdict`` form, as a store line's provenance reads) is that key."""
    base = NetworkConfig(k=4, n=2, seed=9)
    spec = runner_spec(GRID_RUNNER)
    points = enumerate_points(base, axes, extra)
    store = KeySpy(tmp_path / "c")
    SweepLedger(points).prefill(store, base, spec, "sweep")
    assert len(store.asked) == len(points) == len(set(store.asked))
    for point, key in zip(points, store.asked):
        config = asdict(base.with_(**{**point.overrides, "seed": point.seed}))
        assert key == point_key(config, point.kwargs, spec)
        on_disk = json.loads(json.dumps({"config": config, "kwargs": point.kwargs}, default=int))
        assert key == point_key(on_disk["config"], on_disk["kwargs"], spec)


_JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text("ab")),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.text("xyz", max_size=2), children, max_size=3)
    ),
    max_leaves=12,
)


class TestResultCacheStore:
    @given(record=st.dictionaries(st.text("abc", min_size=1, max_size=2), _JSON_TREES, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_get_copies_like_deepcopy(self, record, tmp_path_factory):
        """``get`` walks dicts and lists instead of ``copy.deepcopy``: on a
        decoded-JSON record the two agree, no container is shared with the
        index, and scribbling on the copy leaves the store's answer intact."""
        cache = ResultCache(tmp_path_factory.mktemp("copy") / "c")
        cache.put("k", record)
        held = cache._index["k"]["record"]
        got = cache.get("k")
        assert got == copy.deepcopy(held) == held

        def containers(obj):
            if isinstance(obj, (dict, list)):
                yield id(obj)
                for child in obj.values() if isinstance(obj, dict) else obj:
                    yield from containers(child)

        assert not set(containers(got)) & set(containers(held))

        def scribble(obj):
            for child in list(obj.values()) if isinstance(obj, dict) else list(obj):
                if isinstance(child, (dict, list)):
                    scribble(child)
            obj.clear()

        before = copy.deepcopy(held)
        scribble(got)
        assert cache.get("k") == before == ResultCache(cache.path).get("k")

    def test_put_get_roundtrip_jsonable(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k1", {"latency": 1.5, "coords": (1, 2), "ok": True})
        rec = cache.get("k1")
        assert rec == {"latency": 1.5, "coords": [1, 2], "ok": True}
        # reopened store sees the same entry (JSONL persisted)
        rec2 = ResultCache(tmp_path / "c").get("k1")
        assert rec2 == rec

    def test_get_returns_private_copy(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k", {"nested": {"a": 1}})
        cache.get("k")["nested"]["a"] = 99
        assert cache.get("k")["nested"]["a"] == 1

    def test_miss_and_hit_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("nope") is None
        cache.put("k", {"v": 1})
        cache.get("k")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1
        assert cache.stats.bytes_written > 0

    def test_duplicate_key_newest_wins(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 2})
        assert cache.get("k") == {"v": 2}
        assert len(cache) == 1
        assert ResultCache(tmp_path / "c").get("k") == {"v": 2}

    def test_corrupt_tail_recovers(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        store = cache.store_path
        # simulate a crash mid-append: truncate the last line in half
        text = store.read_text()
        store.write_text(text + '{"key": "k3", "rec')
        reopened = ResultCache(tmp_path / "c")
        assert len(reopened) == 2
        assert reopened.get("k1") == {"v": 1}
        assert reopened.get("k2") == {"v": 2}
        # and writes after recovery still parse cleanly
        reopened.put("k4", {"v": 4})
        assert len(ResultCache(tmp_path / "c")) == 3

    def test_gc_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for i in range(10):
            cache.put(f"k{i}", {"v": i, "pad": "x" * 50})
        res = cache.gc(cache.total_bytes // 2)
        assert res.kept + res.dropped == 10
        assert 0 < res.kept < 10
        assert res.bytes_after <= cache.total_bytes
        # survivors are the newest entries
        assert cache.get("k9") == {"v": 9, "pad": "x" * 50}
        assert cache.get("k0") is None
        assert len(ResultCache(tmp_path / "c")) == res.kept

    def test_put_gc_put_reopen_keeps_every_survivor(self, tmp_path):
        """``gc`` rewrites the file under the handle ``put`` holds; lines
        written before and after it must all be there for the next open."""
        cache = ResultCache(tmp_path / "c")
        for i in range(6):
            cache.put(f"k{i}", {"v": i, "pad": "x" * 40})
        res = cache.gc(cache.total_bytes // 2)
        survivors = {e["key"]: e["record"] for e in cache.entries()}
        assert 0 < res.kept == len(survivors) < 6
        cache.put("late", {"v": (7, 8)})
        cache.put("k0", {"v": "again"})
        expected = {**survivors, "late": {"v": [7, 8]}, "k0": {"v": "again"}}
        lines = cache.store_path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == [*survivors, "late", "k0"]
        for view in (cache, ResultCache(tmp_path / "c")):
            assert {e["key"]: e["record"] for e in view.entries()} == expected
        # a hit is still a private copy, before and after the reopen
        cache.get("late")["v"].append(9)
        assert cache.get("late") == {"v": [7, 8]}

    def test_bytes_written_is_this_writers_own(self, tmp_path):
        """Two caches appending to one store in turn: each is billed its own
        lines (not whatever the file grew by), nothing interleaves, and each
        sees the other's entries once it reopens."""
        a, b = ResultCache(tmp_path / "c"), ResultCache(tmp_path / "c")

        class Meanwhile:
            """Stringified while ``a`` encodes a line: ``b`` appends right then."""

            def __str__(self):
                b.put("b-mid", {"who": "b"})
                return "meanwhile"

        for i in range(5):
            a.put(f"a{i}", {"who": "a", "i": i})
            b.put(f"b{i}", {"who": "b", "i": (i, "x" * i)})
        a.put("a-last", {"who": "a"}, {"note": Meanwhile()})
        lines = a.store_path.read_text().splitlines()
        keys = [json.loads(line)["key"] for line in lines]
        assert keys == [f"{who}{i}" for i in range(5) for who in "ab"] + ["b-mid", "a-last"]
        for cache, who in ((a, "a"), (b, "b")):
            own = sum(len(line) + 1 for line, key in zip(lines, keys) if key.startswith(who))
            assert cache.stats.bytes_written == own
        assert a.stats.bytes_written + b.stats.bytes_written == a.total_bytes
        assert len(a) == len(b) == 6
        reopened = ResultCache(tmp_path / "c")
        assert len(reopened) == 12
        assert reopened.get("a3") == a.get("a3") and reopened.get("b3") == b.get("b3")

    def test_gc_zero_budget_empties(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k", {"v": 1})
        res = cache.gc(0)
        assert res.kept == 0 and res.dropped == 1
        assert len(cache) == 0 and cache.total_bytes == 0

    def test_gc_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "c").gc(-1)

    def test_flush_stats_accumulates(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k", {"v": 1})
        cache.get("k")
        cache.flush_stats()
        cache.get("k")
        cache.flush_stats()
        totals = cache.cumulative_stats()
        assert totals["hits"] == 2
        assert totals["writes"] == 1
        assert cache.stats.hits == 0  # counters reset after the fold

    def test_corrupt_stats_tolerated(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        (tmp_path / "c" / "stats.json").write_text("{not json")
        assert cache.cumulative_stats() == {}
        cache.get("missing")
        cache.flush_stats()
        assert cache.cumulative_stats()["misses"] == 1

    def test_resolve_cache(self, tmp_path, monkeypatch):
        assert resolve_cache(None) is None
        store = resolve_cache(tmp_path / "c")
        assert isinstance(store, ResultCache)
        assert resolve_cache(store) is store
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_disabled()
        assert resolve_cache(tmp_path / "c") is None


class TestSweepIntegration:
    def test_warm_equals_cold_sha256(self, tmp_path):
        cdir = tmp_path / "cache"
        cold = grid_sweep(cache=cdir)
        warm = grid_sweep(cache=cdir)
        # bit-identical including wall_seconds: hits replay the cold record
        assert record_digest(list(cold)) == record_digest(list(warm))
        assert cold.health.cache_hits == 0
        assert cold.health.cache_misses == len(cold)
        assert warm.health.cache_hits == len(warm)
        assert warm.health.cache_misses == 0
        assert "cache hits" in warm.health.summary()

    def test_cache_off_matches_modulo_wall_seconds(self, tmp_path):
        def strip(records):
            return [{k: v for k, v in r.items() if k != "wall_seconds"} for r in records]

        cold = grid_sweep(cache=tmp_path / "cache")
        warm = grid_sweep(cache=tmp_path / "cache")
        off = grid_sweep(cache=None)
        assert record_digest(strip(cold)) == record_digest(strip(off))
        assert record_digest(strip(warm)) == record_digest(strip(off))

    def test_no_cache_env_bypasses(self, tmp_path, monkeypatch):
        cdir = tmp_path / "cache"
        grid_sweep(cache=cdir)
        store_size = ResultCache(cdir).total_bytes
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        rec = grid_sweep(cache=cdir)
        assert rec.health.cache_hits == 0 and rec.health.cache_misses == 0
        assert ResultCache(cdir).total_bytes == store_size  # no writes either

    def test_salt_change_invalidates(self, tmp_path, monkeypatch):
        cdir = tmp_path / "cache"
        grid_sweep(cache=cdir)
        monkeypatch.setenv("REPRO_CACHE_SALT", "a-different-code-version")
        warm = grid_sweep(cache=cdir)
        assert warm.health.cache_hits == 0
        assert warm.health.cache_misses == len(warm)

    def test_failed_points_never_cached(self, tmp_path):
        def runner(cfg, *, rate):
            if rate > 0.1:
                raise RuntimeError("boom")
            return {"latency": 1.0}

        cdir = tmp_path / "cache"
        kw = dict(extra_axes={"rate": (0.05, 0.2)}, cache=cdir)
        first = run_sweep(GRID_CFG, {}, runner, **kw)
        assert first.health.failed == 1
        second = run_sweep(GRID_CFG, {}, runner, **kw)
        # the good point hits; the failed one re-runs (and fails again)
        assert second.health.cache_hits == 1
        assert second.health.cache_misses == 1
        assert second.health.failed == 1
        entries = ResultCache(cdir).entries()
        assert len(entries) == 1
        assert not entries[0]["record"].get("failed")

    def test_journal_sees_cache_hits(self, tmp_path):
        cdir = tmp_path / "cache"
        journal = tmp_path / "sweep.jsonl"
        grid_sweep(cache=cdir)
        warm = grid_sweep(cache=cdir, journal=str(journal))
        entries = [e for e in read_jsonl(journal) if "record" in e]
        assert len(entries) == len(warm)
        by_index = {e["index"]: e["record"] for e in entries}
        assert record_digest([by_index[i] for i in sorted(by_index)]) == record_digest(
            list(warm)
        )

    def test_pool_mode_shares_cache(self, tmp_path):
        cdir = tmp_path / "cache"
        cold = grid_sweep(cache=cdir, n_workers=2)
        warm = grid_sweep(cache=cdir)  # serial warm run against pool-built cache
        assert record_digest(list(cold)) == record_digest(list(warm))
        assert warm.health.cache_hits == len(warm)

    def test_entries_carry_provenance(self, tmp_path):
        cdir = tmp_path / "cache"
        grid_sweep(cache=cdir)
        entry = ResultCache(cdir).entries()[0]
        assert entry["context"] == "sweep"
        assert entry["runner_spec"]["runner"] == "repro.__main__:_openloop_runner"
        assert entry["runner_kwargs"] == {"warmup": 100, "measure": 200, "drain_limit": 2000}
        assert entry["config"]["k"] == 4
        assert set(entry["coords"]) == {"router_delay", "rate"}


class TestBackendIdentity:
    """A record produced under one network backend must never be keyed,
    hit, or verified as if it came from the other."""

    def test_point_key_differs_across_backends(self):
        import dataclasses

        spec = runner_spec(GRID_RUNNER)
        keys = {
            point_key(
                dataclasses.asdict(GRID_CFG.with_(backend=b)),
                {"rate": 0.1},
                spec,
                salt="s",
            )
            for b in ("object", "vectorized")
        }
        assert len(keys) == 2

    def test_backend_sweeps_store_disjoint_entries(self, tmp_path):
        cdir = tmp_path / "cache"
        grid_sweep(cache=cdir)
        vec = run_sweep(
            GRID_CFG.with_(backend="vectorized"),
            GRID_AXES,
            GRID_RUNNER,
            extra_axes=GRID_EXTRA,
            cache=cdir,
        )
        # the vectorized sweep missed everywhere despite identical results
        assert vec.health.cache_hits == 0
        cache = ResultCache(cdir)
        backends = sorted(e["config"]["backend"] for e in cache.entries())
        assert backends == ["object"] * len(vec) + ["vectorized"] * len(vec)

    def test_verify_reruns_under_recorded_backend(self, tmp_path):
        cdir = tmp_path / "cache"
        run_sweep(
            GRID_CFG.with_(backend="vectorized"),
            GRID_AXES,
            GRID_RUNNER,
            extra_axes=GRID_EXTRA,
            cache=cdir,
        )
        results = verify_entries(ResultCache(cdir), sample=2, seed=0)
        assert all(r.status == "ok" for r in results)


class TestVerify:
    def test_verify_ok_on_real_entries(self, tmp_path):
        cdir = tmp_path / "cache"
        grid_sweep(cache=cdir)
        cache = ResultCache(cdir)
        results = verify_entries(cache, sample=2, seed=0)
        assert len(results) == 2
        assert all(r.status == "ok" for r in results)

    def test_verify_sampling_is_deterministic(self, tmp_path):
        cdir = tmp_path / "cache"
        grid_sweep(cache=cdir)
        cache = ResultCache(cdir)
        a = [r.key for r in verify_entries(cache, sample=3, seed=7)]
        b = [r.key for r in verify_entries(cache, sample=3, seed=7)]
        assert a == b

    def test_verify_detects_tampering(self, tmp_path):
        cdir = tmp_path / "cache"
        grid_sweep(cache=cdir)
        cache = ResultCache(cdir)
        entry = dict(cache.entries()[0])
        record = dict(entry["record"])
        record["latency"] = record["latency"] + 1.0
        cache.put(entry["key"], record, {k: v for k, v in entry.items() if k not in ("key", "record")})
        results = verify_entries(ResultCache(cdir), sample=len(cache), seed=0)
        statuses = {r.key: r.status for r in results}
        assert statuses[entry["key"]] == "mismatch"
        assert sum(1 for s in statuses.values() if s == "mismatch") == 1

    def test_verify_skips_unverifiable_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k", {"v": 1}, {"context": "figures"})
        (res,) = verify_entries(cache, sample=1)
        assert res.status == "skipped"

    def test_verify_skips_configs_with_retired_fields(self, tmp_path):
        # An entry written when NetworkConfig had a field it has since lost
        # cannot be re-run; that is not evidence of a wrong record.
        cdir = tmp_path / "cache"
        grid_sweep(cache=cdir)
        cache = ResultCache(cdir)
        stale, invalid = (dict(e) for e in cache.entries()[:2])
        stale["config"] = {**stale["config"], "no_such_field": None}
        invalid["config"] = {**invalid["config"], "k": 1}
        for entry in (stale, invalid):
            meta = {k: v for k, v in entry.items() if k not in ("key", "record")}
            cache.put(entry["key"], entry["record"], meta)
        results = {
            r.key: r for r in verify_entries(ResultCache(cdir), sample=len(cache), seed=0)
        }
        assert results[stale["key"]].status == "skipped"
        assert "no_such_field" in results[stale["key"]].detail
        # a config that constructs but fails validation still reads as a mismatch
        assert results[invalid["key"]].status == "mismatch"
        assert "ValueError" in results[invalid["key"]].detail

    def test_verify_sample_validation(self, tmp_path):
        with pytest.raises(ValueError):
            verify_entries(ResultCache(tmp_path / "c"), sample=0)

    def test_verify_empty_cache(self, tmp_path):
        assert verify_entries(ResultCache(tmp_path / "c")) == []


class TestWarmSpeedupAcceptance:
    """ISSUE 5 acceptance: warm >= 10x cold on a fig01-style grid (4x4
    mesh, 2 router delays x 3 loads).  The measured successor is the repo
    benchmark's ``sweep_overhead`` cold/warm legs."""

    def test_warm_rerun_10x(self, tmp_path):
        cdir = tmp_path / "cache"
        t0 = time.perf_counter()
        cold = grid_sweep(cache=cdir)
        cold_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = grid_sweep(cache=cdir)
        warm_wall = time.perf_counter() - t0
        assert record_digest(list(cold)) == record_digest(list(warm))
        speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")
        assert speedup >= 10.0, f"warm rerun only {speedup:.1f}x faster than cold"
