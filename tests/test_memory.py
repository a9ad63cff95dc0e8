"""Working-memory guards: the tracemalloc peak of each image-sized stage
of the restore chain, per pixel or entry, against a bound measured first
with headroom.  Each bound fails the form the stage had before it stopped
making full-size temporaries."""

import tracemalloc

import numpy as np

from phasetv import (
    SolverConfig,
    Weights,
    add_wrapped_gaussian_noise,
    dist,
    gen_atan2,
    gen_wrapped_ramp,
    initialize,
    mask_random,
    mask_subsample3,
    run_cppa,
    write_phase,
)


def _peak(fn) -> int:
    """The most bytes that ``fn()`` held at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_initialize_holds_at_most_24_bytes_per_pixel():
    # Measured 20.6 B/px at 512^2 (17.2 at 1024^2): x 8, the padded filled
    # mask 1, the pending indices 7.1 and the temporaries of one chunk of
    # 2^16 pending pixels.  Writing the fills at the round's end took 59.8.
    n = 512
    known = mask_subsample3((n, n))
    f = np.where(known, gen_atan2(n), 0.0)
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    assert _peak(lambda: initialize(f, known, w)) <= 24 * n * n


def test_dist_holds_at_most_14_bytes_per_entry():
    # Measured 11.1 B per entry at 2^18 entries: the result, 8, and the
    # scratch of one block of 2^15 entries.  Five float temporaries of the
    # whole size took 40.
    rng = np.random.default_rng(60)
    p, q = (rng.uniform(-10.0, 10.0, 1 << 18) for _ in range(2))
    assert _peak(lambda: dist(p, q)) <= 14 * (1 << 18)


def test_write_phase_holds_at_most_3_bytes_per_pixel(tmp_path):
    # Measured 2.0 B/px: the range check's boolean masks; the payload is the
    # array's own buffer.  The header joined to a bytes copy took 16.
    x = gen_atan2(512)
    assert _peak(lambda: write_phase(tmp_path / "x.phase", x)) <= 3 * x.size


def test_noisy_run_cppa_holds_at_most_58_bytes_per_pixel():
    # Measured 55.5 B/px at 256^2 with 20% loss, among it the image and the
    # phase pool, 8 each, and the data term's index, its two gather columns
    # (the reference in one) and two buffers as long as it, 6.4 each.  A
    # private copy of the reference took 61.9.
    n = 256
    known = mask_random((n, n), 0.2, 0)
    noisy = add_wrapped_gaussian_noise(gen_wrapped_ramp((n, n), 4 * np.pi / (n - 1)), 0.3, 0)
    f = np.where(known, noisy, 0.0)
    w = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(1.5, 1.5), gamma=1.5)
    x0 = initialize(f, known, w)
    config = SolverConfig(max_sweeps=2)
    assert _peak(lambda: run_cppa(x0, f, known, w, "noisy", config)) <= 58 * n * n
