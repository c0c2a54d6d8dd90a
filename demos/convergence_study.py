"""Radial convergence order for p = 3/2 on the unit disk.

The radial closed form u = (1 - r^3)/12 solves
-div(|grad u|^(p-2) grad u) = 1 with zero boundary values.  Each level is
re-meshed at its own h, on a 512-gon, so the polygonal boundary keeps pace
with the interior resolution; a config cannot say that, so this stays a
script.  The p = 2 manufactured case on the square is
``plapx convergence demos/convergence.cfg``.
"""

import math

import numpy as np

from plapx import (ConvexDomain, ExponentField, ProblemSpec, QuadratureContext,
                   continuation_solve, triangulate_convex)

disk = ConvexDomain.disk(1.0, segments=512)
spec = ProblemSpec(domain=disk, p=ExponentField.constant(1.5), f=1.0,
                   g=0.0, q=ExponentField.constant(4.0), mesh_h=0.16)

print("p = 3/2, u = (1 - r^3)/12 on the disk")
print(f"{'h':>9} {'L2 error':>11} {'order':>7}")
orders = []
prev = None
for h in (0.16, 0.08, 0.04):
    mesh = triangulate_convex(disk, h)
    qctx = QuadratureContext(mesh)
    report = continuation_solve(spec, mesh=mesh)
    uv = report.solution.quadrature_values(qctx)
    rr = np.sqrt(qctx.x ** 2 + qctx.y ** 2)
    err = math.sqrt(float(np.sum(
        qctx.weights * (uv - (1.0 - np.minimum(rr, 1.0) ** 3) / 12.0) ** 2)))
    if prev is None:
        print(f"{mesh.h:9.5f} {err:11.4e} {'-':>7}")
    else:
        orders.append(math.log(prev[1] / err) / math.log(prev[0] / mesh.h))
        print(f"{mesh.h:9.5f} {err:11.4e} {orders[-1]:7.3f}")
    prev = (mesh.h, err)
