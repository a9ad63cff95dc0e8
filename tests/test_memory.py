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
    energy,
    gen_atan2,
    gen_wrapped_ramp,
    initialize,
    mask_disc,
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


def test_noisy_run_cppa_holds_at_most_55_bytes_per_pixel():
    # Measured 51.5 B/px at 256^2 with 20% loss, among it the image and the
    # phase pool, 8 each, and the data term's index, its two gather columns
    # (the reference in one) and two buffers as long as it, 6.4 each.  A
    # private copy of the reference took 58.0, a private wrap buffer 55.5.
    n = 256
    known = mask_random((n, n), 0.2, 0)
    noisy = add_wrapped_gaussian_noise(gen_wrapped_ramp((n, n), 4 * np.pi / (n - 1)), 0.3, 0)
    f = np.where(known, noisy, 0.0)
    w = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(1.5, 1.5), gamma=1.5)
    x0 = initialize(f, known, w)
    config = SolverConfig(max_sweeps=2)
    assert _peak(lambda: run_cppa(x0, f, known, w, "noisy", config)) <= 55 * n * n


def test_noiseless_run_cppa_on_a_disc_holds_at_most_28_bytes_per_pixel():
    # Measured 26.9 B/px at 256^2 with a disc of radius 64 unknown, whose
    # groups step in dense form on the hole's crop: among it the image, 8,
    # and the crop's copy, phase pool and step buffers.  The sweep's wrap
    # takes its scratch from the step scratch; a private wrap buffer took 29.1.
    n = 256
    known = mask_disc((n, n), n / 4)
    f = np.where(known, gen_atan2(n), 0.0)
    w = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(0.25, 0.25), gamma=0.25)
    x0 = initialize(f, known, w)
    config = SolverConfig(max_sweeps=2)
    assert _peak(lambda: run_cppa(x0, f, known, w, "noiseless", config)) <= 28 * n * n


def test_subsample3_run_cppa_holds_at_most_37_bytes_per_pixel():
    # Measured 34.1 B/px at 512^2 with every family on, the crop the whole
    # image and every group a whole lattice stepped in phase runs: among it
    # the image and the phase pool, 8 each, and the projection's ids and
    # values of the known ninth of each run's phases.
    n = 512
    known = mask_subsample3((n, n))
    f = np.where(known, gen_atan2(n), 0.0)
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    x0 = initialize(f, known, w)
    config = SolverConfig(max_sweeps=2)
    assert _peak(lambda: run_cppa(x0, f, known, w, "noiseless", config)) <= 37 * n * n


def test_noiseless_run_cppa_on_scattered_loss_holds_at_most_125_bytes_per_pixel():
    # Measured 118.3 B/px at 256^2 with 20% random loss: the crop is the
    # whole image and every group takes the index form, whose projection
    # holds one int64 id and one value per known pixel of its stencils,
    # about 73 B/px over all groups.  A lower figure is open work.
    n = 256
    known = mask_random((n, n), 0.2, 0)
    f = np.where(known, gen_wrapped_ramp((n, n), 4 * np.pi / (n - 1)), 0.0)
    w = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(0.25, 0.25), gamma=0.25)
    x0 = initialize(f, known, w)
    config = SolverConfig(max_sweeps=2)
    assert _peak(lambda: run_cppa(x0, f, known, w, "noiseless", config)) <= 125 * n * n


def test_noisy_energy_holds_at_most_36_bytes_per_pixel():
    # Measured 32.6 B/px at 512^2 with 20% loss: the data term's index and
    # its two gather columns, 6.4 each, and two buffers as long as the
    # longest group, 6.4 each.  Wrapping x and f into new images first, as
    # energy_from_groups does, took 48.6.
    n = 512
    known = mask_random((n, n), 0.2, 0)
    noisy = add_wrapped_gaussian_noise(gen_wrapped_ramp((n, n), 4 * np.pi / (n - 1)), 0.3, 0)
    f = np.where(known, noisy, 0.0)
    w = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(0.25, 0.25), gamma=0.25)
    x = initialize(f, known, w)
    assert _peak(lambda: energy(x, f, known, w, "noisy")) <= 36 * n * n


def _denoising_problem(n):
    """A noisy ramp with every pixel known: pure denoising."""
    f = add_wrapped_gaussian_noise(gen_wrapped_ramp((n, n), 4 * np.pi / (n - 1)), 0.3, 0)
    w = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(1.5, 1.5), gamma=1.5)
    return f, np.ones((n, n), bool), w


def test_denoising_run_cppa_holds_at_most_36_bytes_per_pixel():
    # Measured 33.6 B/px at 512^2 with every pixel known: the image, the
    # phase pool and the two step buffers, 8 each.  The data term steps in
    # place on the image; gathering it into two columns took 49.6.
    n = 512
    f, known, w = _denoising_problem(n)
    config = SolverConfig(max_sweeps=2)
    assert _peak(lambda: run_cppa(f, f, known, w, "noisy", config)) <= 36 * n * n


def test_denoising_energy_holds_at_most_18_bytes_per_pixel():
    # Measured 16.6 B/px at 512^2 with every pixel known: two buffers as
    # long as the image.  Gathering the data term into two columns took 32.6.
    n = 512
    f, known, w = _denoising_problem(n)
    assert _peak(lambda: energy(f, f, known, w, "noisy")) <= 18 * n * n
