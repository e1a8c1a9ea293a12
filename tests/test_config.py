"""Tests for configuration validation (paper Tables I & II)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    FIELD_CHOICES,
    TABLE_I_PARAMETER_SPACE,
    TABLE_II_PARAMETERS,
    CmpConfig,
    NetworkConfig,
)


class TestNetworkConfigDefaults:
    def test_baseline_is_paper_table1_bold(self):
        cfg = NetworkConfig()
        assert cfg.topology == "mesh"
        assert cfg.k == 8 and cfg.n == 2  # 8x8 2D mesh
        assert cfg.num_vcs == 2
        assert cfg.vc_buffer_size == 4
        assert cfg.router_delay == 1
        assert cfg.routing == "dor"
        assert cfg.arbitration == "round_robin"
        assert cfg.link_delay == 1
        assert cfg.packet_size == "single"
        assert cfg.traffic == "uniform_random"

    def test_num_nodes(self):
        assert NetworkConfig(k=8, n=2).num_nodes == 64
        assert NetworkConfig(k=16, n=2).num_nodes == 256
        assert NetworkConfig(topology="ring", k=8, n=2).num_nodes == 64

    def test_with_returns_modified_copy(self):
        cfg = NetworkConfig()
        cfg2 = cfg.with_(router_delay=4)
        assert cfg2.router_delay == 4
        assert cfg.router_delay == 1
        assert cfg2.k == cfg.k

    @given(
        fields=st.fixed_dictionaries(
            {
                "topology": st.sampled_from(["mesh", "torus"]),
                "k": st.integers(2, 8),
                "num_vcs": st.integers(2, 4),
                "classes": st.sampled_from([None, 3, "hi:priority=1+lo:share=0.5"]),
                "seed": st.integers(0, 2**64 - 1),
            }
        ),
        seed=st.one_of(
            st.integers(-(2**70), 2**70),
            st.integers(0, 2**63 - 1).map(np.int64),
            st.integers(2**63, 2**64 - 1).map(np.uint64),
            st.booleans(),
            st.floats(-1e6, 1e6),
            st.integers(0, 99).map(str),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_with_seed_is_with_seed_equals(self, fields, seed):
        """``with_seed(s)`` is ``with_(seed=s)`` — equal, hashing equal, a plain
        int seed, a distinct object — without the other fields' validation."""
        cfg = NetworkConfig(**fields)
        want, got = cfg.with_(seed=seed), cfg.with_seed(seed)
        assert got == want and hash(got) == hash(want)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert type(got) is NetworkConfig and type(got.seed) is int
        assert got is not cfg and cfg.seed == fields["seed"]
        assert got.with_(k=cfg.k) == want  # still a constructible dataclass

    @pytest.mark.parametrize("bad", ["abc", None, 1.5j, float("nan"), float("inf"), [1]])
    def test_with_seed_rejects_what_with_rejects(self, bad):
        cfg = NetworkConfig(k=4)
        outcomes = []
        for derive in (lambda: cfg.with_(seed=bad), lambda: cfg.with_seed(bad)):
            with pytest.raises(Exception) as caught:
                derive()
            outcomes.append((type(caught.value), str(caught.value)))
        assert outcomes[0] == outcomes[1]


class TestNetworkConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topology": "hypercube"},
            {"routing": "xy"},
            {"arbitration": "lottery"},
            {"traffic": "hotspot99"},
            {"packet_size": "trimodal"},
            {"k": 1},
            {"n": 0},
            {"num_vcs": 0},
            {"vc_buffer_size": 0},
            {"router_delay": 0},
            {"link_delay": 0},
            {"credit_delay": -1},
            {"bimodal_long_fraction": 1.5},
            {"bimodal_long_size": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    @pytest.mark.parametrize("name", sorted(FIELD_CHOICES))
    def test_categorical_fields_name_their_choices(self, name):
        with pytest.raises(ValueError, match=f"unknown {name} 'nope'; pick from"):
            NetworkConfig(**{name: "nope"})

    def test_rejects_analytical_backend(self):
        # No zero-cycle estimator is selectable as a network backend.
        with pytest.raises(ValueError, match="unknown backend 'analytical'"):
            NetworkConfig(k=4, n=2, backend="analytical")

    def test_has_no_faults_field(self):
        # The simulated networks are healthy; there is no fault model.
        with pytest.raises(TypeError):
            NetworkConfig(faults=None)

    @pytest.mark.parametrize(
        "name",
        ["k", "n", "num_vcs", "vc_buffer_size", "router_delay", "link_delay",
         "bimodal_long_size", "credit_delay"],
    )
    def test_integer_fields_reject_non_integral_values(self, name):
        """``vc_buffer_size=2.5`` used to simulate as q=3 under a record
        saying 2.5; numpy integers stay accepted and equal."""
        default = getattr(NetworkConfig(), name)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {default}.5$"):
            NetworkConfig(**{name: default + 0.5})
        assert NetworkConfig(**{name: np.int64(default)}) == NetworkConfig()

    def test_wrapped_topologies_need_two_vcs(self):
        with pytest.raises(ValueError):
            NetworkConfig(topology="torus", num_vcs=1)
        with pytest.raises(ValueError):
            NetworkConfig(topology="ring", num_vcs=1)

    def test_nonminimal_routing_needs_two_vcs(self):
        for alg in ("val", "ma", "romm"):
            with pytest.raises(ValueError):
                NetworkConfig(routing=alg, num_vcs=1)

    def test_routing_algorithms_mesh_only(self):
        # The paper evaluates VAL/MA/ROMM on the mesh only.
        for alg in ("val", "ma", "romm"):
            with pytest.raises(ValueError):
                NetworkConfig(routing=alg, topology="torus")
            NetworkConfig(routing=alg, topology="mesh")  # fine


class TestCmpConfig:
    def test_defaults_match_table2(self):
        cfg = CmpConfig()
        assert cfg.num_cores == 16
        assert cfg.l1_lines * cfg.line_bytes == 32 * 1024  # 32 KB
        assert cfg.l1_assoc == 4
        assert cfg.l1_latency == 2
        assert cfg.l2_lines_per_tile * cfg.line_bytes == 512 * 1024  # 512 KB/tile
        assert cfg.l2_latency == 10
        assert cfg.memory_latency == 300
        assert cfg.network.k == 4 and cfg.network.n == 2  # 4-ary 2-cube
        assert cfg.network.num_vcs == 8
        assert cfg.network.vc_buffer_size == 4

    def test_network_core_count_must_match(self):
        with pytest.raises(ValueError):
            CmpConfig(num_cores=8)

    def test_rejects_non_multiple_assoc(self):
        with pytest.raises(ValueError):
            CmpConfig(l1_lines=100, l1_assoc=3)

    def test_rejects_bad_blocking_fraction(self):
        with pytest.raises(ValueError):
            CmpConfig(blocking_fraction=1.5)

    def test_with_copies(self):
        cfg = CmpConfig()
        cfg2 = cfg.with_(mshrs=4)
        assert cfg2.mshrs == 4 and cfg.mshrs == 8


class TestParameterTables:
    def test_table1_covers_paper_axes(self):
        for key in (
            "topology",
            "virtual_channels",
            "vc_buffer_size",
            "router_delay",
            "routing",
            "arbitration",
            "packet_sizes",
            "traffic",
        ):
            assert key in TABLE_I_PARAMETER_SPACE

    def test_table1_router_delays(self):
        assert TABLE_I_PARAMETER_SPACE["router_delay"] == (1, 2, 4, 8)

    def test_table2_entries(self):
        assert "processor" in TABLE_II_PARAMETERS
        assert "16 in-order" in TABLE_II_PARAMETERS["processor"]
