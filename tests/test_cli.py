"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.__main__ import (
    _explore_spec,
    _network_config,
    _parse_axis,
    _parse_reply,
    build_parser,
    main,
)
from repro.analysis.io import read_jsonl
from repro.config import NetworkConfig
from repro.core.parallel import enumerate_points
from repro.core.reply import FixedReply, ImmediateReply, ProbabilisticReply


class TestParseReply:
    def test_immediate(self):
        assert isinstance(_parse_reply("immediate"), ImmediateReply)

    def test_fixed(self):
        m = _parse_reply("fixed:50")
        assert isinstance(m, FixedReply)
        assert m.latency == 50

    def test_probabilistic(self):
        m = _parse_reply("prob:20:300:0.1")
        assert isinstance(m, ProbabilisticReply)
        assert m.mean == pytest.approx(50.0)

    def test_bad_spec(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_reply("zipf:3")


class TestParseAxis:
    def test_int_values(self):
        assert _parse_axis("router-delay=1,2,4") == ("router_delay", (1, 2, 4))

    def test_string_values(self):
        assert _parse_axis("topology=mesh,torus") == ("topology", ("mesh", "torus"))

    def test_bad_spec(self):
        import argparse

        for spec in ("router_delay", "=1,2", "name="):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_axis(spec)

    def test_values_are_typed_by_field(self):
        """``1`` and ``1.0`` of a float field are one coordinate: one point
        seed (and one cache key) for what is one config."""
        name, values = _parse_axis("bimodal-long-fraction=1,0.5")
        assert name == "bimodal_long_fraction" and values == (1.0, 0.5)
        assert [type(v) for v in values] == [float, float]
        base = NetworkConfig(packet_size="bimodal")
        seeds = [
            [p.seed for p in enumerate_points(base, dict([_parse_axis(spec)]), {"rate": (0.1,)})]
            for spec in ("bimodal-long-fraction=1", "bimodal-long-fraction=1.0")
        ]
        assert seeds[0] == seeds[1]
        # a spec field: a count when the value is one, a spec string otherwise
        assert _parse_axis("classes=2,user+os") == ("classes", (2, "user+os"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--rates", "0.1", "--axis", "seed=1.5"],  # ran seed 1
            ["sweep", "--rates", "0.1", "--axis", "k=8.0"],  # failed every point
            ["sweep", "--rates", "0.1", "--axis", "vc-buffer-size=2,2.5"],
            ["sweep", "--rates", "0.1", "--axis", "bogus=1"],
            ["submit", "localhost:1", "--rates", "0.1", "--axis", "k=8.0"],
            ["explore", "--quick", "--gene", "num-vcs=2,4.0"],
        ],
    )
    def test_bad_values_exit_2_at_parse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error: argument --" in err


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out

    def test_version_is_real(self):
        import repro

        assert repro.__version__
        assert repro.__version__[0].isdigit()

    def test_import_repro_skips_stdlib_the_serial_path_never_uses(self):
        """Every CLI start and every spawned pool worker pays for ``import
        repro``: the packaging-metadata scan and the process-pool / socket
        machinery stay out of it, and ``__version__`` resolves on demand."""
        script = (
            "import sys, repro\n"
            "heavy = ('importlib.metadata', 'multiprocessing',"
            " 'concurrent.futures.process', 'socketserver')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            "print(repro.__version__)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.returncode == 0, out.stderr
        import repro

        assert out.stdout.splitlines() == ["[]", repro.__version__]


#: What a process that does not simulate must never import: numpy, the
#: simulator's packages, and the drivers.
SIMULATOR_MODULES = (
    "numpy",
    "repro.network",
    "repro.routing",
    "repro.topology",
    "repro.traffic",
    "repro.execdriven",
    "repro.core.engine",
    "repro.core.openloop",
    "repro.core.closedloop",
    "repro.core.barrier",
    "repro.core.tracedriven",
    "repro.core.explore",
    "repro.core.probes",
)

#: Prints the loaded members of SIMULATOR_MODULES (and their submodules).
_REPORT_LOADED = (
    "print(sorted(m for m in sys.modules if any("
    "m == h or m.startswith(h + '.') for h in %r)))\n" % (SIMULATOR_MODULES,)
)


def _fresh_python(script: str) -> list[str]:
    """Run ``script`` in a new interpreter; its stdout lines."""
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


class TestControlPlaneImports:
    """The ledger, result cache, journal, service and CLI dispatch run
    without numpy or the simulator; a process imports what it runs."""

    def test_sweep_cache_journal_and_a_lease_load_no_simulator(self):
        script = (
            "import dataclasses, sys, tempfile, pathlib\n"
            "import repro, repro.core.parallel, repro.core.cache, repro.analysis.io\n"
            "import repro.service.protocol, repro.service.controller\n"
            "import repro.service.client, repro.service.worker\n"
            "from repro.config import NetworkConfig\n"
            "from repro.core.cache import runner_spec\n"
            "from repro.core.parallel import run_sweep\n"
            "from repro.service.controller import Controller, ServiceOptions\n"
            "from repro.service.worker import execute_lease\n"
            "def constant(cfg, *, rate):\n"
            "    return {'latency': cfg.router_delay / (1.0 - rate)}\n"
            "work = pathlib.Path(tempfile.mkdtemp())\n"
            "base = NetworkConfig(k=4, n=2, seed=3)\n"
            "rates = {'rate': tuple(round(0.05 * i, 2) for i in range(1, 11))}\n"
            "for _ in range(2):  # cold, then every point a cache hit\n"
            "    recs = run_sweep(base, {'router_delay': (1, 2)}, constant, extra_axes=rates,\n"
            "                     cache=work / 'c', journal=work / 'j.jsonl')\n"
            "    assert len(recs) == 20 and recs.health.ok == 20, recs.health.summary()\n"
            "assert recs.health.cache_hits == 20\n"
            "ctl = Controller(ServiceOptions(fallback_after=None))\n"
            "client, worker = {}, {}\n"
            "ctl.handle({'type': 'hello', 'role': 'client'}, client)\n"
            "ctl.handle({'type': 'hello', 'role': 'worker', 'name': 'w'}, worker)\n"
            "job = ctl.handle({'type': 'submit', 'base': dataclasses.asdict(base),\n"
            "    'points': [{'index': 0, 'overrides': {}, 'kwargs': {'rate': 0.5}, 'seed': 5}],\n"
            "    'runner': runner_spec(constant), 'options': {}}, client)\n"
            "lease = ctl.handle({'type': 'request'}, worker)\n"
            "record = execute_lease(lease)\n"
            "assert record == {**record, 'rate': 0.5, 'latency': 2.0}, record\n"
            "ctl.handle({'type': 'result', 'lease_id': lease['lease_id'],\n"
            "    'job_id': lease['job_id'], 'record': record}, worker)\n"
            "assert ctl.handle({'type': 'poll', 'job_id': job['job_id']}, client)['finished']\n"
            + _REPORT_LOADED
        )
        assert _fresh_python(script) == ["[]"]

    def test_control_plane_commands_start_without_the_simulator(self):
        """``--help``/``--version`` and the help of every command that does
        not simulate: exit 0, and nothing of the simulator imported."""
        commands = (
            ["--help"], ["--version"], ["cache", "--help"], ["serve", "--help"],
            ["submit", "--help"], ["worker", "--help"],
        )
        script = (
            "import contextlib, io, sys\n"
            "from repro.__main__ import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            main(argv)\n"
            "        except SystemExit as exc:\n"
            "            assert exc.code == 0, (argv, exc.code)\n"
            "        else:\n"
            "            raise AssertionError(argv)\n"
            + _REPORT_LOADED
        )
        assert _fresh_python(script) == ["[]"]

    def test_probe_names_in_help_come_from_the_registry(self, capsys):
        from repro.core.probes import PROBE_REGISTRY

        for command in ("openloop", "batch"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            assert "from {" + ",".join(PROBE_REGISTRY) + "} or 'all'" in text


class TestLazyNamespaces:
    """``repro``, ``repro.core`` and ``repro.analysis`` import a public name's
    submodule on first use; what they export is what eager imports gave."""

    PACKAGES = ("repro", "repro.core", "repro.analysis")

    @pytest.mark.parametrize("name", PACKAGES)
    def test_exports_resolve_to_their_submodules(self, name):
        import importlib

        package = importlib.import_module(name)
        assert package.__all__ == list(package._exports)
        listed = dir(package)
        for export, submodule in package._exports.items():
            defining = importlib.import_module(submodule, name)
            assert getattr(package, export) is getattr(defining, export), export
            assert export in listed
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert {k for k in namespace if k != "__builtins__"} == set(package.__all__)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            package.nope

    def test_an_export_outranks_its_same_named_submodule(self):
        """Loading ``repro.core.explore`` first binds the module on the package;
        the exported function keeps the name, as with eager imports."""
        script = (
            "import pickle\n"
            "import repro.core.explore, repro.analysis.ascii_plot\n"
            "import repro.core, repro.analysis\n"
            "from repro.core import explore\n"
            "from repro.analysis import ascii_plot\n"
            "print(explore.__module__, ascii_plot.__module__)\n"
            "assert repro.core.explore is explore\n"
            "assert pickle.loads(pickle.dumps(explore)) is explore\n"
        )
        assert _fresh_python(script) == ["repro.core.explore repro.analysis.ascii_plot"]


#: The CLI's option surface, pinned: per subcommand, each argument's option
#: strings, dest, default, sorted choices, nargs, const, required and action
#: class (help excluded) -- 166 options and 3 positionals over 11
#: subcommands.  The network and executor flags are generated from one
#: declaration each; this says that generation adds and loses nothing.
PARSER_SURFACE = {
    'openloop': [
        (('--topology',), 'topology', 'mesh', ('mesh', 'ring', 'torus'), None, None, False, '_StoreAction'),
        (('--k',), 'k', 8, None, None, None, False, '_StoreAction'),
        (('--n',), 'n', 2, None, None, None, False, '_StoreAction'),
        (('--num-vcs',), 'num_vcs', 2, None, None, None, False, '_StoreAction'),
        (('--vc-buffer-size', '-q'), 'vc_buffer_size', 4, None, None, None, False, '_StoreAction'),
        (('--router-delay', '--tr'), 'router_delay', 1, None, None, None, False, '_StoreAction'),
        (('--routing',), 'routing', 'dor', ('dor', 'ma', 'romm', 'val'), None, None, False, '_StoreAction'),
        (('--arbitration',), 'arbitration', 'round_robin', ('age', 'priority', 'round_robin', 'weighted'), None, None, False, '_StoreAction'),
        (('--classes',), 'classes', None, None, None, None, False, '_StoreAction'),
        (('--traffic',), 'traffic', 'uniform_random', ('bit_complement', 'bit_reversal', 'hotspot', 'neighbor', 'tornado', 'transpose', 'uniform_random'), None, None, False, '_StoreAction'),
        (('--packet-size',), 'packet_size', 'single', ('bimodal', 'single'), None, None, False, '_StoreAction'),
        (('--backend',), 'backend', 'object', ('object', 'vectorized'), None, None, False, '_StoreAction'),
        (('--seed',), 'seed', 1, None, None, None, False, '_StoreAction'),
        (('--warmup',), 'warmup', 500, None, None, None, False, '_StoreAction'),
        (('--measure',), 'measure', 1000, None, None, None, False, '_StoreAction'),
        (('--drain',), 'drain', 10000, None, None, None, False, '_StoreAction'),
        (('--rate',), 'rate', None, None, None, None, True, '_StoreAction'),
        (('--probes',), 'probes', None, None, None, None, False, '_StoreAction'),
        (('--probe-interval',), 'probe_interval', 100, None, None, None, False, '_StoreAction'),
        (('--probe-out',), 'probe_out', None, None, None, None, False, '_StoreAction'),
        (('--watchdog',), 'watchdog', None, None, None, None, False, '_StoreAction'),
        (('--check-invariants',), 'check_invariants', False, None, 0, True, False, '_StoreTrueAction'),
    ],
    'sweep': [
        (('--topology',), 'topology', 'mesh', ('mesh', 'ring', 'torus'), None, None, False, '_StoreAction'),
        (('--k',), 'k', 8, None, None, None, False, '_StoreAction'),
        (('--n',), 'n', 2, None, None, None, False, '_StoreAction'),
        (('--num-vcs',), 'num_vcs', 2, None, None, None, False, '_StoreAction'),
        (('--vc-buffer-size', '-q'), 'vc_buffer_size', 4, None, None, None, False, '_StoreAction'),
        (('--router-delay', '--tr'), 'router_delay', 1, None, None, None, False, '_StoreAction'),
        (('--routing',), 'routing', 'dor', ('dor', 'ma', 'romm', 'val'), None, None, False, '_StoreAction'),
        (('--arbitration',), 'arbitration', 'round_robin', ('age', 'priority', 'round_robin', 'weighted'), None, None, False, '_StoreAction'),
        (('--classes',), 'classes', None, None, None, None, False, '_StoreAction'),
        (('--traffic',), 'traffic', 'uniform_random', ('bit_complement', 'bit_reversal', 'hotspot', 'neighbor', 'tornado', 'transpose', 'uniform_random'), None, None, False, '_StoreAction'),
        (('--packet-size',), 'packet_size', 'single', ('bimodal', 'single'), None, None, False, '_StoreAction'),
        (('--backend',), 'backend', 'object', ('object', 'vectorized'), None, None, False, '_StoreAction'),
        (('--seed',), 'seed', 1, None, None, None, False, '_StoreAction'),
        (('--warmup',), 'warmup', 500, None, None, None, False, '_StoreAction'),
        (('--measure',), 'measure', 1000, None, None, None, False, '_StoreAction'),
        (('--drain',), 'drain', 10000, None, None, None, False, '_StoreAction'),
        (('--rates',), 'rates', None, None, None, None, True, '_StoreAction'),
        (('--axis',), 'axis', None, None, None, None, False, '_AppendAction'),
        (('--workers',), 'workers', 1, None, None, None, False, '_StoreAction'),
        (('--journal',), 'journal', None, None, None, None, False, '_StoreAction'),
        (('--resume',), 'resume', False, None, 0, True, False, '_StoreTrueAction'),
        (('--force-resume',), 'force_resume', False, None, 0, True, False, '_StoreTrueAction'),
        (('--remote',), 'remote', None, None, None, None, False, '_StoreAction'),
        (('--progress',), 'progress', False, None, 0, True, False, '_StoreTrueAction'),
        (('--point-timeout',), 'point_timeout', None, None, None, None, False, '_StoreAction'),
        (('--max-retries',), 'max_retries', 2, None, None, None, False, '_StoreAction'),
        (('--cache',), 'cache', None, None, '?', '', False, '_StoreAction'),
    ],
    'explore': [
        (('--topology',), 'topology', 'mesh', ('mesh', 'ring', 'torus'), None, None, False, '_StoreAction'),
        (('--k',), 'k', 8, None, None, None, False, '_StoreAction'),
        (('--n',), 'n', 2, None, None, None, False, '_StoreAction'),
        (('--num-vcs',), 'num_vcs', 2, None, None, None, False, '_StoreAction'),
        (('--vc-buffer-size', '-q'), 'vc_buffer_size', 4, None, None, None, False, '_StoreAction'),
        (('--router-delay', '--tr'), 'router_delay', 1, None, None, None, False, '_StoreAction'),
        (('--routing',), 'routing', 'dor', ('dor', 'ma', 'romm', 'val'), None, None, False, '_StoreAction'),
        (('--arbitration',), 'arbitration', 'round_robin', ('age', 'priority', 'round_robin', 'weighted'), None, None, False, '_StoreAction'),
        (('--classes',), 'classes', None, None, None, None, False, '_StoreAction'),
        (('--traffic',), 'traffic', 'uniform_random', ('bit_complement', 'bit_reversal', 'hotspot', 'neighbor', 'tornado', 'transpose', 'uniform_random'), None, None, False, '_StoreAction'),
        (('--packet-size',), 'packet_size', 'single', ('bimodal', 'single'), None, None, False, '_StoreAction'),
        (('--backend',), 'backend', 'object', ('object', 'vectorized'), None, None, False, '_StoreAction'),
        (('--seed',), 'seed', 1, None, None, None, False, '_StoreAction'),
        (('--warmup',), 'warmup', None, None, None, None, False, '_StoreAction'),
        (('--measure',), 'measure', None, None, None, None, False, '_StoreAction'),
        (('--drain',), 'drain', None, None, None, None, False, '_StoreAction'),
        (('--quick',), 'quick', False, None, 0, True, False, '_StoreTrueAction'),
        (('--population',), 'population', None, None, None, None, False, '_StoreAction'),
        (('--generations',), 'generations', None, None, None, None, False, '_StoreAction'),
        (('--gene',), 'gene', None, None, None, None, False, '_AppendAction'),
        (('--objectives',), 'objectives', 'latency,throughput,cost', None, None, None, False, '_StoreAction'),
        (('--rates',), 'rates', None, None, None, None, False, '_StoreAction'),
        (('--workers',), 'workers', 1, None, None, None, False, '_StoreAction'),
        (('--remote',), 'remote', None, None, None, None, False, '_StoreAction'),
        (('--point-timeout',), 'point_timeout', None, None, None, None, False, '_StoreAction'),
        (('--max-retries',), 'max_retries', 2, None, None, None, False, '_StoreAction'),
        (('--cache',), 'cache', None, None, '?', '', False, '_StoreAction'),
        (('--out',), 'out', None, None, None, None, False, '_StoreAction'),
    ],
    'saturation': [
        (('--topology',), 'topology', 'mesh', ('mesh', 'ring', 'torus'), None, None, False, '_StoreAction'),
        (('--k',), 'k', 8, None, None, None, False, '_StoreAction'),
        (('--n',), 'n', 2, None, None, None, False, '_StoreAction'),
        (('--num-vcs',), 'num_vcs', 2, None, None, None, False, '_StoreAction'),
        (('--vc-buffer-size', '-q'), 'vc_buffer_size', 4, None, None, None, False, '_StoreAction'),
        (('--router-delay', '--tr'), 'router_delay', 1, None, None, None, False, '_StoreAction'),
        (('--routing',), 'routing', 'dor', ('dor', 'ma', 'romm', 'val'), None, None, False, '_StoreAction'),
        (('--arbitration',), 'arbitration', 'round_robin', ('age', 'priority', 'round_robin', 'weighted'), None, None, False, '_StoreAction'),
        (('--classes',), 'classes', None, None, None, None, False, '_StoreAction'),
        (('--traffic',), 'traffic', 'uniform_random', ('bit_complement', 'bit_reversal', 'hotspot', 'neighbor', 'tornado', 'transpose', 'uniform_random'), None, None, False, '_StoreAction'),
        (('--packet-size',), 'packet_size', 'single', ('bimodal', 'single'), None, None, False, '_StoreAction'),
        (('--backend',), 'backend', 'object', ('object', 'vectorized'), None, None, False, '_StoreAction'),
        (('--seed',), 'seed', 1, None, None, None, False, '_StoreAction'),
        (('--warmup',), 'warmup', 500, None, None, None, False, '_StoreAction'),
        (('--measure',), 'measure', 1000, None, None, None, False, '_StoreAction'),
        (('--drain',), 'drain', 10000, None, None, None, False, '_StoreAction'),
        (('--tolerance',), 'tolerance', 0.01, None, None, None, False, '_StoreAction'),
    ],
    'batch': [
        (('--topology',), 'topology', 'mesh', ('mesh', 'ring', 'torus'), None, None, False, '_StoreAction'),
        (('--k',), 'k', 8, None, None, None, False, '_StoreAction'),
        (('--n',), 'n', 2, None, None, None, False, '_StoreAction'),
        (('--num-vcs',), 'num_vcs', 2, None, None, None, False, '_StoreAction'),
        (('--vc-buffer-size', '-q'), 'vc_buffer_size', 4, None, None, None, False, '_StoreAction'),
        (('--router-delay', '--tr'), 'router_delay', 1, None, None, None, False, '_StoreAction'),
        (('--routing',), 'routing', 'dor', ('dor', 'ma', 'romm', 'val'), None, None, False, '_StoreAction'),
        (('--arbitration',), 'arbitration', 'round_robin', ('age', 'priority', 'round_robin', 'weighted'), None, None, False, '_StoreAction'),
        (('--classes',), 'classes', None, None, None, None, False, '_StoreAction'),
        (('--traffic',), 'traffic', 'uniform_random', ('bit_complement', 'bit_reversal', 'hotspot', 'neighbor', 'tornado', 'transpose', 'uniform_random'), None, None, False, '_StoreAction'),
        (('--packet-size',), 'packet_size', 'single', ('bimodal', 'single'), None, None, False, '_StoreAction'),
        (('--backend',), 'backend', 'object', ('object', 'vectorized'), None, None, False, '_StoreAction'),
        (('--seed',), 'seed', 1, None, None, None, False, '_StoreAction'),
        (('-b', '--batch-size'), 'batch_size', 1000, None, None, None, False, '_StoreAction'),
        (('-m', '--max-outstanding'), 'max_outstanding', None, None, None, None, False, '_StoreAction'),
        (('--nar',), 'nar', None, None, None, None, False, '_StoreAction'),
        (('--reply',), 'reply', None, None, None, None, False, '_StoreAction'),
        (('--barrier',), 'barrier', False, None, 0, True, False, '_StoreTrueAction'),
        (('--probes',), 'probes', None, None, None, None, False, '_StoreAction'),
        (('--probe-interval',), 'probe_interval', 100, None, None, None, False, '_StoreAction'),
        (('--probe-out',), 'probe_out', None, None, None, None, False, '_StoreAction'),
        (('--watchdog',), 'watchdog', None, None, None, None, False, '_StoreAction'),
        (('--check-invariants',), 'check_invariants', False, None, 0, True, False, '_StoreTrueAction'),
    ],
    'cmp': [
        (('--benchmark',), 'benchmark', 'blackscholes', ('barnes', 'blackscholes', 'canneal', 'fft', 'lu'), None, None, False, '_StoreAction'),
        (('--instructions',), 'instructions', 10000, None, None, None, False, '_StoreAction'),
        (('--router-delay', '--tr'), 'router_delay', 1, None, None, None, False, '_StoreAction'),
        (('--clock',), 'clock', '3ghz', ('3ghz', '75mhz', 'off'), None, None, False, '_StoreAction'),
        (('--ideal',), 'ideal', False, None, 0, True, False, '_StoreTrueAction'),
        (('--seed',), 'seed', 1, None, None, None, False, '_StoreAction'),
    ],
    'characterize': [
        (('--benchmark',), 'benchmark', 'all', None, None, None, False, '_StoreAction'),
        (('--instructions',), 'instructions', 10000, None, None, None, False, '_StoreAction'),
        (('--seed',), 'seed', 1, None, None, None, False, '_StoreAction'),
    ],
    'serve': [
        (('--host',), 'host', '127.0.0.1', None, None, None, False, '_StoreAction'),
        (('--port',), 'port', 7421, None, None, None, False, '_StoreAction'),
        (('--cache',), 'cache', None, None, '?', '', False, '_StoreAction'),
        (('--lease-seconds',), 'lease_seconds', 60.0, None, None, None, False, '_StoreAction'),
        (('--heartbeat-timeout',), 'heartbeat_timeout', 10.0, None, None, None, False, '_StoreAction'),
        (('--quarantine-after',), 'quarantine_after', 3, None, None, None, False, '_StoreAction'),
        (('--quarantine-seconds',), 'quarantine_seconds', 30.0, None, None, None, False, '_StoreAction'),
        (('--fallback-after',), 'fallback_after', 15.0, None, None, None, False, '_StoreAction'),
        (('--no-fallback',), 'no_fallback', False, None, 0, True, False, '_StoreTrueAction'),
        (('--fallback-workers',), 'fallback_workers', 1, None, None, None, False, '_StoreAction'),
    ],
    'worker': [
        ((), 'address', None, None, None, None, True, '_StoreAction'),
        (('--name',), 'name', None, None, None, None, False, '_StoreAction'),
        (('--max-points',), 'max_points', None, None, None, None, False, '_StoreAction'),
        (('--max-idle',), 'max_idle', None, None, None, None, False, '_StoreAction'),
    ],
    'submit': [
        (('--topology',), 'topology', 'mesh', ('mesh', 'ring', 'torus'), None, None, False, '_StoreAction'),
        (('--k',), 'k', 8, None, None, None, False, '_StoreAction'),
        (('--n',), 'n', 2, None, None, None, False, '_StoreAction'),
        (('--num-vcs',), 'num_vcs', 2, None, None, None, False, '_StoreAction'),
        (('--vc-buffer-size', '-q'), 'vc_buffer_size', 4, None, None, None, False, '_StoreAction'),
        (('--router-delay', '--tr'), 'router_delay', 1, None, None, None, False, '_StoreAction'),
        (('--routing',), 'routing', 'dor', ('dor', 'ma', 'romm', 'val'), None, None, False, '_StoreAction'),
        (('--arbitration',), 'arbitration', 'round_robin', ('age', 'priority', 'round_robin', 'weighted'), None, None, False, '_StoreAction'),
        (('--classes',), 'classes', None, None, None, None, False, '_StoreAction'),
        (('--traffic',), 'traffic', 'uniform_random', ('bit_complement', 'bit_reversal', 'hotspot', 'neighbor', 'tornado', 'transpose', 'uniform_random'), None, None, False, '_StoreAction'),
        (('--packet-size',), 'packet_size', 'single', ('bimodal', 'single'), None, None, False, '_StoreAction'),
        (('--backend',), 'backend', 'object', ('object', 'vectorized'), None, None, False, '_StoreAction'),
        (('--seed',), 'seed', 1, None, None, None, False, '_StoreAction'),
        (('--warmup',), 'warmup', 500, None, None, None, False, '_StoreAction'),
        (('--measure',), 'measure', 1000, None, None, None, False, '_StoreAction'),
        (('--drain',), 'drain', 10000, None, None, None, False, '_StoreAction'),
        ((), 'address', None, None, None, None, True, '_StoreAction'),
        (('--rates',), 'rates', None, None, None, None, True, '_StoreAction'),
        (('--axis',), 'axis', None, None, None, None, False, '_AppendAction'),
        (('--journal',), 'journal', None, None, None, None, False, '_StoreAction'),
        (('--resume',), 'resume', False, None, 0, True, False, '_StoreTrueAction'),
        (('--force-resume',), 'force_resume', False, None, 0, True, False, '_StoreTrueAction'),
        (('--progress',), 'progress', False, None, 0, True, False, '_StoreTrueAction'),
        (('--max-retries',), 'max_retries', 2, None, None, None, False, '_StoreAction'),
    ],
    'cache': [
        ((), 'action', None, ('gc', 'stats', 'verify'), None, None, True, '_StoreAction'),
        (('--dir',), 'dir', None, None, None, None, False, '_StoreAction'),
        (('--max-bytes',), 'max_bytes', None, None, None, None, False, '_StoreAction'),
        (('--sample',), 'sample', 1, None, None, None, False, '_StoreAction'),
        (('--seed',), 'seed', 0, None, None, None, False, '_StoreAction'),
    ],
}


def _parser_surface() -> dict:
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: [
            (tuple(a.option_strings), a.dest, a.default,
             None if a.choices is None else tuple(sorted(a.choices)),
             a.nargs, a.const, a.required, type(a).__name__)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _api_command_line() -> str:
    """docs/API.md's section "Command line", up to the next heading."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _option_strings(parser: argparse.ArgumentParser) -> set:
    """Every option string of ``parser`` and of its subparsers, recursively."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


class TestDocumentedSurface:
    """The documented CLI is the parser's: a removed verb or flag leaves no trace."""

    def test_api_verb_list_is_the_parsers(self):
        listed = re.search(r"python -m repro \{([^}]*)\}", _api_command_line())
        assert {verb.strip() for verb in listed.group(1).split("|")} == set(_parser_surface())

    def test_api_flags_exist(self):
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _api_command_line()))
        assert named and named <= _option_strings(build_parser())

    def test_readme_commands_name_real_verbs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        verbs = set(re.findall(r"python -m repro ([a-z][\w-]*)", readme))
        assert verbs and verbs <= set(_parser_surface())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_openloop_args(self):
        args = build_parser().parse_args(
            ["openloop", "--rate", "0.1", "--topology", "torus", "--num-vcs", "4"]
        )
        assert args.rate == 0.1
        assert args.topology == "torus"

    def test_rejects_unknown_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["openloop", "--rate", "0.1", "--topology", "fat-tree"])

    def test_retired_surfaces_are_argparse_errors(self):
        for argv in (
            ["bench"],
            ["explore", "--quick", "--check"],
            ["estimate", "--rates", "0.1"],
            ["openloop", "--rate", "0.1", "--faults", "links:1"],
            ["sweep", "--rates", "0.1", "--axis", "faults=links:1"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_option_surface_is_pinned(self):
        assert _parser_surface() == PARSER_SURFACE

    def test_network_flags_build_the_config_they_name(self):
        args = build_parser().parse_args(
            ["openloop", "--rate", "0.1", "-q", "2", "--tr", "3", "--classes", "2",
             "--backend", "vectorized", "--seed", "9"]
        )
        assert _network_config(args) == NetworkConfig(
            vc_buffer_size=2, router_delay=3, classes="2", backend="vectorized", seed=9
        )


class TestCommands:
    def test_openloop(self, capsys):
        rc = main(
            [
                "openloop", "--k", "4", "--rate", "0.1",
                "--warmup", "100", "--measure", "200", "--drain", "1000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "saturated=False" in out

    def test_sweep(self, capsys):
        rc = main(
            [
                "sweep", "--k", "4", "--rates", "0.05,0.2",
                "--warmup", "100", "--measure", "200", "--drain", "1000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.05" in out and "0.2" in out

    def test_sweep_with_axis_and_journal_resume(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        argv = [
            "sweep", "--k", "4", "--rates", "0.05,0.2",
            "--warmup", "50", "--measure", "100", "--drain", "500",
            "--axis", "router-delay=1,2", "--journal", str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # one fingerprint-header line plus one line per point
        entries = read_jsonl(journal)
        assert len([e for e in entries if "index" in e]) == 4
        assert "fingerprint" in entries[0].get("sweep", {})
        # drop the last journal line, resume, and get the same table back
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        assert len([e for e in read_jsonl(journal) if "index" in e]) == 4

    def test_sweep_resume_without_journal_errors(self, capsys):
        rc = main(["sweep", "--k", "4", "--rates", "0.05", "--resume"])
        assert rc == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_batch(self, capsys):
        rc = main(["batch", "--k", "4", "-b", "20", "-m", "2"])
        assert rc == 0
        assert "completed=True" in capsys.readouterr().out

    def test_batch_with_models(self, capsys):
        rc = main(
            ["batch", "--k", "4", "-b", "15", "-m", "1", "--nar", "0.2",
             "--reply", "fixed:30"]
        )
        assert rc == 0
        assert "completed=True" in capsys.readouterr().out

    def test_barrier(self, capsys):
        rc = main(["batch", "--k", "4", "-b", "20", "--barrier"])
        assert rc == 0
        assert "barrier model" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--nar", "0.2"], "--nar"),
            (["--reply", "fixed:30"], "--reply"),
            (["-m", "1"], "-m"),
            (["-m", "4", "--nar", "0.5"], "--nar, -m"),
        ],
    )
    def test_barrier_refuses_batch_model_flags(self, capsys, flags, named):
        """The barrier model has no NAR, reply model or MSHR limit: a flag
        for one is refused by name instead of being silently dropped."""
        rc = main(["batch", "--k", "4", "-b", "20", "--barrier", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not take {named}:" in captured.err

    def test_batch_m_defaults_to_one(self, capsys):
        assert main(["batch", "--k", "4", "-b", "10"]) == 0
        assert "(b=10, m=1)" in capsys.readouterr().out

    def test_cmp_ideal(self, capsys):
        rc = main(
            ["cmp", "--benchmark", "fft", "--instructions", "1500", "--ideal"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fft on ideal" in out
        assert "completed=True" in out

    def test_openloop_probes_jsonl(self, capsys, tmp_path):
        """Acceptance: --probes emits valid JSONL readable by analysis.io."""
        out = tmp_path / "probes.jsonl"
        rc = main(
            [
                "openloop", "--k", "4", "--rate", "0.1",
                "--warmup", "100", "--measure", "200", "--drain", "1000",
                "--probes", "all", "--probe-interval", "50",
                "--probe-out", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "window records" in stdout
        assert "per_node_ejected" in stdout  # the heatmap rendered
        records = read_jsonl(out)
        assert records
        for rec in records:
            assert rec["window_end"] > rec["window_start"]
            assert "link_util" in rec and "vc_occ_peak" in rec

    def test_batch_probes_jsonl(self, capsys, tmp_path):
        out = tmp_path / "probes.jsonl"
        rc = main(
            [
                "batch", "--k", "4", "-b", "20", "-m", "2",
                "--probes", "channel,stall", "--probe-out", str(out),
            ]
        )
        assert rc == 0
        assert "window records" in capsys.readouterr().out
        records = read_jsonl(out)
        assert records
        assert all("injection_stalls" in rec for rec in records)

    def test_barrier_probes(self, capsys):
        rc = main(
            ["batch", "--k", "4", "-b", "20", "--barrier", "--probes", "inflight"]
        )
        assert rc == 0
        assert "window records" in capsys.readouterr().out

    def test_bad_probe_name_errors(self, capsys):
        rc = main(["openloop", "--k", "4", "--rate", "0.1", "--probes", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown probe" in err

    def test_characterize_single(self, capsys):
        rc = main(
            ["characterize", "--benchmark", "blackscholes", "--instructions", "1500"]
        )
        assert rc == 0
        assert "blackscholes" in capsys.readouterr().out


def _repro_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return env


class TestRunHealthFlags:
    def test_openloop_check_invariants(self, capsys):
        rc = main(
            [
                "openloop", "--k", "4", "--rate", "0.05",
                "--warmup", "50", "--measure", "100", "--drain", "500",
                "--check-invariants",
            ]
        )
        assert rc == 0

    def test_barrier_watchdog_stops_a_deadlock(self, capsys, monkeypatch, deadlocking_network):
        """The barrier model takes the same observers as the batch model: a
        deadlocked ring exits 3 at the watchdog, not at its cycle budget."""
        monkeypatch.setattr("repro.core.barrier.build_network", deadlocking_network)
        rc = main(
            [
                "batch", "--barrier", "--topology", "ring", "--k", "4", "--n", "2",
                "--num-vcs", "2", "-q", "1", "--seed", "1",
                "-b", "10", "--watchdog", "500",
            ]
        )
        assert rc == 3
        assert "no forward progress" in capsys.readouterr().err

    def test_sweep_health_summary(self, capsys):
        rc = main(
            [
                "sweep", "--k", "4", "--rates", "0.05",
                "--warmup", "50", "--measure", "100", "--drain", "500",
            ]
        )
        assert rc == 0
        assert "health: 1/1 ok" in capsys.readouterr().err


class TestExploreCLI:
    """The `repro explore` subcommand (NSGA-II design-space search)."""

    # Quick profile shrunk via --gene overrides: 2x1x1x2x1 = 4 genomes.
    TINY = [
        "explore", "--quick", "--population", "4", "--generations", "1",
        "--gene", "topology=mesh,torus", "--gene", "num-vcs=2",
        "--gene", "vc-buffer-size=2", "--gene", "routing=dor,val",
        "--gene", "arbitration=round_robin",
        "--warmup", "80", "--measure", "160", "--drain", "1600",
    ]

    def test_journal_is_refused(self, capsys):
        """A run resumes from its --cache; explore keeps no journal."""
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--quick", "--journal", "explore.jsonl"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --journal" in capsys.readouterr().err

    def test_profiles_are_the_explorer_s(self):
        from repro.core.explore import QUICK_SPEC, ExploreSpec

        parse = build_parser().parse_args
        assert _explore_spec(parse(["explore"]))[1] == ExploreSpec()
        cfg, spec = _explore_spec(parse(["explore", "--quick"]))
        assert spec == QUICK_SPEC and (cfg.k, cfg.n) == (4, 2)

    def test_explicit_zeros_are_honoured(self, capsys):
        argv = ["explore", "--quick", "--warmup", "0", "--drain", "0", "--generations", "0"]
        _, spec = _explore_spec(build_parser().parse_args(argv))
        assert (spec.warmup, spec.measure, spec.drain_limit) == (0, 300, 0)
        assert spec.generations == 0 and spec.population == 8
        assert main(["explore", "--quick", "--population", "0"]) == 2
        assert "population must be >= 2" in capsys.readouterr().err

    def test_bad_gene_exits_2(self, capsys):
        rc = main(["explore", "--quick", "--gene", "topology=hypercube"])
        assert rc == 2
        assert "explore error" in capsys.readouterr().err

    def test_bad_objectives_exit_2(self, capsys):
        rc = main(["explore", "--quick", "--objectives", "latency,power"])
        assert rc == 2
        assert "objectives" in capsys.readouterr().err

    def test_tiny_explore_end_to_end(self, capsys, tmp_path):
        out = tmp_path / "out"
        rc = main(self.TINY + ["--cache", str(tmp_path / "cache"), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "latency" in captured.out and "cost" in captured.out
        assert "explore:" in captured.err
        # Artifacts: one JSON record per front design, plus the figure.
        front = read_jsonl(out / "explore_front.jsonl")
        assert front and all("objectives" in r for r in front)
        assert "pareto front" in (out / "explore_front.txt").read_text()

    def test_same_seed_same_front_table(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(self.TINY + ["--cache", cache]) == 0
        first = capsys.readouterr().out
        assert main(self.TINY + ["--cache", cache]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestErrorBoundarySubprocess:
    def test_value_error_is_one_line_exit_2(self):
        """Acceptance: a config mistake prints one line and exits 2."""
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "openloop",
                "--k", "1", "--rate", "0.1",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=_repro_env(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        err_lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")


class TestParallelCliSmoke:
    def test_sweep_workers_2_subprocess(self):
        """Exercise the real `python -m repro ... --workers 2` pool path."""
        env = _repro_env()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep",
                "--k", "4", "--rates", "0.05,0.2",
                "--warmup", "50", "--measure", "100", "--drain", "500",
                "--workers", "2", "--progress",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0.05" in proc.stdout and "0.2" in proc.stdout
        assert "latency" in proc.stdout
        assert "[2/2]" in proc.stderr  # progress reached completion


class TestCacheCLI:
    """The `repro cache` subcommand and the sweep `--cache` flag."""

    SWEEP = [
        "sweep", "--k", "4", "--rates", "0.05,0.2",
        "--warmup", "50", "--measure", "100", "--drain", "500",
    ]

    def test_sweep_cache_warm_hits(self, capsys, tmp_path):
        cdir = str(tmp_path / "cache")
        assert main(self.SWEEP + ["--cache", cdir]) == 0
        cold = capsys.readouterr()
        assert "0/2 cache hits" in cold.err
        assert main(self.SWEEP + ["--cache", cdir]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # identical table, replayed from disk
        assert "2/2 cache hits" in warm.err

    def test_sweep_cache_default_dir_from_env(self, capsys, tmp_path, monkeypatch):
        cdir = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cdir))
        assert main(self.SWEEP + ["--cache"]) == 0
        assert (cdir / "store.jsonl").exists()

    def test_stats_verify_gc_cycle(self, capsys, tmp_path):
        cdir = str(tmp_path / "cache")
        main(self.SWEEP + ["--cache", cdir])
        capsys.readouterr()

        assert main(["cache", "stats", "--dir", cdir]) == 0
        out = capsys.readouterr().out
        assert "entries  2" in out
        assert "context  sweep: 2 entries" in out

        assert main(["cache", "verify", "--dir", cdir, "--sample", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok\n") == 2
        assert "verified 2 sampled entries: 2 ok, 0 skipped, 0 mismatch(es)" in out

        assert main(["cache", "gc", "--dir", cdir, "--max-bytes", "0"]) == 0
        assert "dropped 2" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", cdir]) == 0
        assert "entries  0" in capsys.readouterr().out

    def test_verify_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "verify", "--dir", str(tmp_path / "c")]) == 0
        assert "nothing to verify" in capsys.readouterr().out

    def test_verify_fails_when_nothing_reran(self, capsys, tmp_path):
        from repro.core.cache import ResultCache

        cdir = tmp_path / "cache"
        cache = ResultCache(cdir)
        for key in ("a", "b"):  # records without runner provenance
            cache.put(key, {"v": 1}, {"context": "figures"})
        cache.close()
        assert main(["cache", "verify", "--dir", str(cdir), "--sample", "2"]) == 1
        assert "0 ok, 2 skipped, 0 mismatch(es)" in capsys.readouterr().out

    def test_verify_detects_mismatch_exit_1(self, capsys, tmp_path):
        from repro.core.cache import ResultCache

        cdir = str(tmp_path / "cache")
        main(self.SWEEP + ["--cache", cdir])
        capsys.readouterr()
        cache = ResultCache(cdir)
        entry = dict(cache.entries()[0])
        record = dict(entry["record"])
        record["latency"] = -1.0
        meta = {k: v for k, v in entry.items() if k not in ("key", "record")}
        cache.put(entry["key"], record, meta)
        assert main(["cache", "verify", "--dir", cdir, "--sample", "2"]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_gc_requires_max_bytes(self, capsys, tmp_path):
        assert main(["cache", "gc", "--dir", str(tmp_path / "c")]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_no_cache_env_bypasses_cli(self, capsys, tmp_path, monkeypatch):
        cdir = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(self.SWEEP + ["--cache", cdir]) == 0
        err = capsys.readouterr().err
        assert "cache hits" not in err
        assert not (tmp_path / "cache" / "store.jsonl").exists()
