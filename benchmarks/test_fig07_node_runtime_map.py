"""Figure 7: per-node batch runtime across the chip, mesh vs torus.

Paper: on the (edge-asymmetric) mesh the nodes near the center finish much
faster than the outer nodes; on the edge-symmetric torus all nodes finish
at nearly the same time — which is why the mesh loses to the torus in
worst-case (runtime) terms even with lower average latency.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_matrix
from repro.core.metrics import runtime_map


def test_fig07_node_runtime_map(exhibit):
    maps = {topo: runtime_map(res["node_finish"], 8) for topo, res in exhibit.items()}
    mesh, torus = maps["mesh"], maps["torus"]
    text = (
        format_matrix(mesh, title="Figure 7(a) - mesh normalized runtime (dark = slow)")
        + "\n\n"
        + format_matrix(torus, title="Figure 7(b) - torus normalized runtime")
        + f"\n\nmesh:  center {mesh[3:5, 3:5].mean():.3f}  corners "
        f"{(mesh[0,0]+mesh[0,7]+mesh[7,0]+mesh[7,7])/4:.3f}  spread "
        f"{mesh.max()-mesh.min():.3f}\n"
        f"torus: spread {torus.max()-torus.min():.3f}\n"
        "paper: mesh center finishes much faster than edges; torus flat"
    )
    emit("fig07_node_runtime_map", text)
    center = mesh[3:5, 3:5].mean()
    corners = (mesh[0, 0] + mesh[0, 7] + mesh[7, 0] + mesh[7, 7]) / 4
    assert center < corners
    assert (torus.max() - torus.min()) < (mesh.max() - mesh.min())
