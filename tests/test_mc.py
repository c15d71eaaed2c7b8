import functools
import math

import numpy as np
import pytest

from qtomo import homodyne, mc, spin


class TestUpdate:
    def test_single_value(self):
        acc = mc.moments([5.0])
        assert acc.count == 1
        assert acc.mean == 5.0 + 0.0j
        assert acc.m2_re == 0.0 and acc.m2_im == 0.0

    def test_three_values_hand_computed(self):
        acc = mc.moments([1.0, 2.0, 3.0])
        out = mc.finalize(acc)
        assert out["mean"] == pytest.approx(2.0 + 0.0j, abs=1e-15)
        # sample variance 1 -> stderr sqrt(1/3)
        assert out["stderr_re"] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
        assert out["stderr_im"] == 0.0

    def test_repeated_value_zero_spread(self):
        z = 0.3 - 1.2j
        out = mc.finalize(mc.moments([z, z, z]))
        assert out["mean"] == pytest.approx(z, abs=1e-15)
        assert out["stderr_re"] == pytest.approx(0.0, abs=1e-15)
        assert out["stderr_im"] == pytest.approx(0.0, abs=1e-15)


    def test_matches_welford_reference(self):
        # the per-value Welford loop the two-pass moments replaced
        rng = np.random.default_rng(8)
        values = 3.0 + rng.normal(size=1000) + 1j * rng.normal(size=1000)
        count, mean, m2_re, m2_im = 0, 0.0 + 0.0j, 0.0, 0.0
        for v in values:
            count += 1
            delta = v - mean
            mean += delta / count
            m2_re += delta.real * (v - mean).real
            m2_im += delta.imag * (v - mean).imag
        acc = mc.moments(values)
        assert acc.count == count
        assert acc.mean == pytest.approx(mean, rel=1e-12)
        assert acc.m2_re == pytest.approx(m2_re, rel=1e-12)
        assert acc.m2_im == pytest.approx(m2_im, rel=1e-12)


class TestMerge:
    def test_empty_is_identity(self):
        acc = mc.moments([1.0 + 2.0j, -0.5])
        assert mc.merge(mc.RunningEstimate(), acc) == acc
        assert mc.merge(acc, mc.RunningEstimate()) == acc

    def test_merge_equals_concatenation(self):
        a = mc.moments([1.0, 2.0])
        b = mc.moments([3.0])
        merged = mc.merge(a, b)
        whole = mc.moments([1.0, 2.0, 3.0])
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.m2_re == pytest.approx(whole.m2_re, rel=1e-12)

    def test_shard_permutation_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40) + 1j * rng.normal(size=40)
        shards = [mc.moments(values[i::4]) for i in range(4)]
        ref = mc.finalize(mc.moments(values))
        for order in ((0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)):
            acc = mc.RunningEstimate()
            for i in order:
                acc = mc.merge(acc, shards[i])
            out = mc.finalize(acc)
            assert out["mean"] == pytest.approx(ref["mean"], rel=1e-12)
            assert out["stderr_re"] == pytest.approx(ref["stderr_re"], rel=1e-12)
            assert out["stderr_im"] == pytest.approx(ref["stderr_im"], rel=1e-12)


class TestFinalize:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.finalize(mc.RunningEstimate())

    def test_single_sample_has_undefined_stderr(self):
        out = mc.finalize(mc.moments([1.0 + 1.0j]))
        assert out["count"] == 1
        assert out["stderr_re"] is None
        assert out["stderr_im"] is None

    def test_pure_imaginary_inputs(self):
        out = mc.finalize(mc.moments([1.0j, 2.0j, 3.0j]))
        assert out["stderr_re"] == 0.0
        assert out["stderr_im"] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)


class TestReconstruct:
    def test_spin_identity_kernel_is_constant_one(self):
        rho = spin.maximally_mixed(1)
        records = spin.sample_spin(rho, 2000, seed=6)
        result = mc.reconstruct(records, spin.SpinOperatorKernel(np.eye(2, dtype=complex)))
        # sigma(I) = 1 at both outcomes for spin 1/2, so the mean is exact
        assert result["mean"].real == pytest.approx(1.0, abs=1e-12)
        assert result["stderr_re"] == pytest.approx(0.0, abs=1e-12)

    def test_homodyne_vacuum_photon_number(self):
        rho = homodyne.vacuum_state(8)
        records = homodyne.sample_homodyne(rho, 20_000, seed=13)
        result = mc.reconstruct(records, homodyne.PhotonNumberKernel())
        assert abs(result["mean"].real) <= 4.0 * result["stderr_re"]

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mc.reconstruct([], homodyne.PhotonNumberKernel())

    def test_shard_count_independence(self):
        rng = np.random.default_rng(110)
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = raw @ raw.conj().T
        rho = spin.SpinDensityMatrix(2, m / np.trace(m).real)
        _, _, jz = spin.spin_matrices(2)
        records = spin.sample_spin(rho, 5000, seed=17)
        kernel = spin.SpinOperatorKernel(jz)
        ref = mc.reconstruct(records, kernel)
        for shards in (2, 4, 8):
            # the kernel sees each contiguous part alone, and the parts fold
            parts = (kernel.evaluate(part) for part in np.array_split(records, shards))
            out = mc.finalize(functools.reduce(mc.merge, map(mc.moments, parts)))
            assert out["mean"] == pytest.approx(ref["mean"], rel=1e-12, abs=1e-15)
            assert out["stderr_re"] == pytest.approx(ref["stderr_re"], rel=1e-12)

    def test_kernel_record_mismatch(self):
        records = spin.sample_spin(spin.maximally_mixed(1), 10, seed=1)
        with pytest.raises(TypeError):
            mc.reconstruct(records, homodyne.PhotonNumberKernel())
