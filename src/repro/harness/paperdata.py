"""The paper's published numbers, embedded for side-by-side reports.

Sources: Table 1 (latencies — kept in ``repro.sim.latency``), Table 2
(application data sets), Table 3 (page consumption/utilization), Table 4
(static-configuration remote misses and SCOMA-70 page-outs), Table 5
(adaptive-configuration remote misses and page-outs), and the two
explicitly labelled Figure 7 bars.

Absolute values are *not* expected to match this reproduction (the
problem sizes and machine are scaled; see DESIGN.md section 2) — the
reports compare shapes: orderings, ratios, crossovers.
"""

from __future__ import annotations

#: Paper order of applications (Figure 7, Tables 3-5).
PAPER_APPS = ("barnes", "fft", "lu", "mp3d", "ocean", "radix",
              "water-nsq", "water-spa")

#: Table 2 — problem descriptions and sizes.
TABLE2 = {
    "barnes": ("Hierarchical N-body", "8K particles, 4 iters"),
    "fft": ("FFT computation", "64K complex doubles"),
    "lu": ("Blocked LU decomposition", "512x512 matrix, 16x16 blocks"),
    "mp3d": ("Rarefied air flow simulation", "20,000 particles, 5 iters"),
    "ocean": ("Simulation of ocean currents", "258x258 ocean grid"),
    "radix": ("Radix sort", "1M integer keys, radix 1K"),
    "water-nsq": ("O(n^2) water molecule simulation", "512 molecules, 3 iters"),
    "water-spa": ("O(n) water molecule simulation", "512 molecules, 3 iters"),
}

#: Table 3 — page frames allocated and average utilization.
#: app -> (scoma_frames, lanuma_frames, scoma_util, lanuma_util)
TABLE3 = {
    "barnes": (3376, 616, 0.478, 0.576),
    "fft": (4888, 976, 0.276, 0.829),
    "lu": (2888, 592, 0.576, 0.873),
    "mp3d": (1520, 304, 0.198, 0.677),
    "ocean": (8808, 4056, 0.732, 0.956),
    "radix": (13352, 2288, 0.330, 0.940),
    "water-nsq": (1232, 536, 0.753, 0.894),
    "water-spa": (672, 160, 0.315, 0.652),
}

#: Table 4 — remote misses (static configs) and SCOMA-70 page-outs.
#: app -> (scoma, lanuma, scoma70, scoma70_pageouts)
TABLE4 = {
    "barnes": (267651, 3348808, 295817, 8457),
    "fft": (122338, 186026, 128850, 11432),
    "lu": (115433, 991951, 115441, 510),
    "mp3d": (279970, 373081, 289065, 856),
    "ocean": (629986, 8002014, 1779388, 22457),
    "radix": (254201, 1394601, 363404, 15883),
    "water-nsq": (111074, 970560, 521016, 68290),
    "water-spa": (40611, 178713, 69767, 2949),
}

#: Table 5 — remote misses and page-outs (adaptive configs).
#: app -> (fcfs, util, lru, util_pageouts, lru_pageouts)
TABLE5 = {
    "barnes": (709684, 1354715, 807393, 930, 895),
    "fft": (122338, 122364, 124944, 5558, 5651),
    "lu": (119378, 116931, 115441, 509, 509),
    "mp3d": (280679, 280413, 283559, 404, 413),
    "ocean": (1253209, 830618, 3709983, 1449, 1464),
    "radix": (492143, 495263, 368294, 3878, 3883),
    "water-nsq": (530448, 814619, 284861, 855, 873),
    "water-spa": (81326, 75038, 102713, 251, 258),
}

#: Figure 7 — the two bars tall enough that the paper printed their
#: values (normalized execution time, SCOMA = 1.0).
FIGURE7_LABELLED = {
    ("barnes", "lanuma"): 2.84,
    ("ocean", "lanuma"): 4.63,
}

#: Section 4.3 — DRAM PIT (10 cycles) slowdown over SRAM PIT (2 cycles).
PIT_SLOWDOWN = {
    "barnes": 0.16,
    "fft": 0.05,
    "lu": 0.02,
    "mp3d": 0.02,
    "ocean": 0.02,
    "radix": 0.02,
    "water-nsq": 0.02,
    "water-spa": 0.02,
}
