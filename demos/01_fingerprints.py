"""Build multipath fingerprints for a handful of hand-written paths.

Shows the two fingerprint views the rest of the package consumes: the
complex channel frequency response (CFR) and the angle-delay amplitude
matrix derived from it. A single broadside path concentrates all its
energy in one angle-delay cell, which is the property the segmentation
and regression stages exploit.
"""
import numpy as np

from amdnloc import PathRecord, adcam, cfr_stack, render_image

NT, NC = 32, 64

# one strong broadside path plus two weaker off-axis echoes
paths = [
    PathRecord(aoa=np.pi / 2, aod=np.pi / 2, gain=1.0 + 0j, delay_samples=0, pathloss_db=70.0),
    PathRecord(aoa=1.1, aod=1.9, gain=0.6 - 0.2j, delay_samples=7, pathloss_db=78.0),
    PathRecord(aoa=2.3, aod=0.8, gain=-0.3 + 0.4j, delay_samples=15, pathloss_db=84.0),
]

h = cfr_stack([paths], NT, NC)[0]
print(f"CFR matrix: {h.shape}, dtype {h.dtype}")
print(f"mean |H| = {np.mean(np.abs(h)):.3e}")

a = adcam(h)
peak = np.unravel_index(np.argmax(a), a.shape)
print(f"angle-delay matrix: {a.shape}, peak at row {peak[0]}, col {peak[1]}")
print(f"peak / total energy = {a[peak]**2 / np.sum(a**2):.3f}")

# the images the segmentation stage actually sees
for matrix, tag in ((h, "cfr_magnitude"), (h, "cfr_phase"), (a, "adcam")):
    img = render_image(matrix, tag)
    print(f"{tag:14s} -> image {img.shape}, range [{img.min():.2f}, {img.max():.2f}]")
