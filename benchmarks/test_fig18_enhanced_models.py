"""Figure 18: exec-driven runtimes vs the enhanced batch models.

Per benchmark and router delay, the paper compares GEMS+Garnet against
BA_inj (NAR injection model), BA_re (reply model) and BA_inj+re (both),
with each model's parameters derived from the benchmark's characterization
(Tables III/IV) — the same parameter flow implemented by
:func:`repro.execdriven.characterize.derive_batch_params`.
"""

from __future__ import annotations

from conftest import BATCH_SIZE, TR_VALUES, cmp_config, emit

from repro.analysis import format_table
from repro.core.closedloop import BatchSimulator
from repro.execdriven import BENCHMARKS, derive_batch_params

# In-order cores block on loads, so their effective memory-level
# parallelism is ~1 even with 8 MSHRs (the paper's SII-B2 argument that
# on-chip cores tolerate "only a handful" of outstanding requests); the
# batch variants therefore run at m=1, where the NAR model's injection
# gap and the round trip serialize per operation as they do in the core.
M = 1


def batch_variants(ch):
    """BA / BA_inj / BA_re / BA_inj+re parameter sets for one benchmark."""
    params = derive_batch_params(ch)
    return {
        "BA": {},
        "BA_inj": {"nar": params["nar"]},
        "BA_re": {"reply_model": params["reply_model"]},
        "BA_inj+re": {"nar": params["nar"], "reply_model": params["reply_model"]},
    }


def run_batch_models(characterizations, tr_values=TR_VALUES, batch_size=BATCH_SIZE):
    out = {}
    for name, ch in characterizations.items():
        for label, kw in batch_variants(ch).items():
            for tr in tr_values:
                cfg = cmp_config(tr).network
                res = BatchSimulator(
                    cfg, batch_size=batch_size, max_outstanding=M, **kw
                ).run()
                out[name, label, tr] = res.runtime
    return out


def test_fig18_enhanced_models(exec_results_3ghz, characterizations):
    batches = run_batch_models(characterizations)
    sections = []
    ok_closer = 0
    total = 0
    for name in BENCHMARKS:
        base_exec = exec_results_3ghz[name, 1].cycles
        rows = []
        for tr in TR_VALUES:
            row = [tr, exec_results_3ghz[name, tr].cycles / base_exec]
            for label in ("BA", "BA_inj", "BA_re", "BA_inj+re"):
                row.append(batches[name, label, tr] / batches[name, label, 1])
            rows.append(row)
        sections.append(
            format_table(
                ["tr", "exec", "BA", "BA_inj", "BA_re", "BA_inj+re"],
                rows,
                precision=2,
                title=f"Figure 18 - {name} (runtime normalized to tr=1)",
            )
        )
        # at tr=8, count whether each enhanced model lands closer to the
        # exec-driven ratio than the baseline does
        exec8 = exec_results_3ghz[name, 8].cycles / base_exec
        ba8 = batches[name, "BA", 8] / batches[name, "BA", 1]
        for label in ("BA_inj", "BA_re", "BA_inj+re"):
            v8 = batches[name, label, 8] / batches[name, label, 1]
            total += 1
            if abs(v8 - exec8) < abs(ba8 - exec8):
                ok_closer += 1
    text = "\n\n".join(sections) + (
        f"\n\nenhanced models closer to exec-driven than baseline BA at "
        f"tr=8: {ok_closer}/{total} cases (paper: enhanced models shrink "
        f"the gap; BA_inj+re is not uniformly best - see Fig. 19/SIV-D)"
    )
    emit("fig18_enhanced_models", text)
    assert ok_closer >= total * 0.6
