import numpy as np
import pytest

from daplab import model as m
from daplab import tensor as tc
from daplab.classes import NUM_CLASSES
from daplab.errors import DimensionError, InputError
from daplab.tensor import Tensor


@pytest.fixture
def student():
    return m.init_student(seed=0)


class TestForward:
    def test_shape_contract(self, student):
        rng = np.random.default_rng(1)
        out = m.forward(student, Tensor(rng.uniform(size=(1, 3, 64, 64))))
        assert out.features.shape == (1, 32, 16, 16)
        assert out.logits.shape == (1, NUM_CLASSES, 64, 64)
        assert out.projected_features.shape == (1, 32, 16, 16)

    def test_zero_head_gives_uniform_posterior(self, student):
        student.params["head.conv"].data[:] = 0.0
        rng = np.random.default_rng(2)
        out = m.forward(student, Tensor(rng.uniform(size=(1, 3, 16, 16))))
        np.testing.assert_array_equal(out.logits.data, 0.0)

    def test_indivisible_size_rejected(self, student):
        with pytest.raises(DimensionError):
            m.forward(student, Tensor(np.zeros((1, 3, 30, 32))))

    def test_forward_is_pure(self, student):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(size=(1, 3, 32, 32)))
        a = m.forward(student, x)
        b = m.forward(student, x)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)
        np.testing.assert_array_equal(a.features.data, b.features.data)

    def test_permuting_head_rows_permutes_logit_channels(self, student):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(size=(1, 3, 32, 32)))
        perm = np.array([3, 0, 5, 1, 4, 2])
        base = m.forward(student, x).logits.data

        student.params["head.conv"].data = \
            student.params["head.conv"].data[perm].copy()
        permuted = m.forward(student, x).logits.data
        np.testing.assert_allclose(permuted, base[:, perm], atol=1e-12)


class TestProjectAnchors:
    def test_identity_projector_passes_through(self, student):
        d = m.COMMON_CHANNELS
        student.params["gpr.conv"].data = np.eye(d).reshape(d, d, 1, 1)
        vectors = np.random.default_rng(5).normal(size=(NUM_CLASSES, d))
        anchors = m.project_anchors(student, vectors)
        assert anchors.shape == (d, NUM_CLASSES, 1, 1)
        np.testing.assert_allclose(anchors.data[:, :, 0, 0], vectors.T, atol=1e-12)

    def test_zero_weights_give_zero_output(self, student):
        student.params["gpr.conv"].data[:] = 0.0
        vectors = np.random.default_rng(6).normal(size=(NUM_CLASSES, NUM_CLASSES))
        anchors = m.project_anchors(student, vectors)
        np.testing.assert_array_equal(anchors.data, 0.0)

    def test_contracting_fractions_projects_the_blended_vectors(self):
        # the projector is linear: blending the anchors by class fraction is
        # projecting the fraction-blended class vectors
        state = m.init_student(seed=1, prior_dim=9)
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(NUM_CLASSES, 9))
        fractions = rng.dirichlet(np.ones(NUM_CLASSES), size=(2, 5, 5)).transpose(0, 3, 1, 2)
        anchors = m.project_anchors(state, vectors)
        blended = np.einsum("cd,ncij->ndij", vectors, fractions)
        np.testing.assert_allclose(
            tc.conv2d(Tensor(fractions), anchors).data,
            tc.conv2d(Tensor(blended), state.params["gpr.conv"]).data, atol=1e-12)

    def test_dimension_mismatch_rejected(self, student):
        with pytest.raises(DimensionError, match=f"has {NUM_CLASSES + 1} channels but "
                                                 f"the projector expects {NUM_CLASSES}"):
            m.project_anchors(student, np.zeros((NUM_CLASSES, NUM_CLASSES + 1)))


class TestEmaUpdate:
    def test_decay_one_keeps_teacher(self, student):
        teacher = m.make_teacher(student)
        before = {k: v.data.copy() for k, v in teacher.named()}
        student.params["head.conv"].data += 1.0
        m.ema_update(teacher, student, 1.0)
        for name, arr in before.items():
            np.testing.assert_array_equal(teacher.params[name].data, arr)

    def test_decay_zero_copies_student(self, student):
        teacher = m.make_teacher(student)
        student.params["head.conv"].data += 0.5
        m.ema_update(teacher, student, 0.0)
        for name, p in teacher.named():
            np.testing.assert_array_equal(p.data, student.params[name].data)

    def test_constant_student_decays_geometrically(self, student):
        teacher = m.make_teacher(student)
        for p in teacher.params.values():
            p.data += 1.0  # teacher offset from the frozen student
        decay = 0.9
        start_gap = {name: teacher.params[name].data - student.params[name].data
                     for name in teacher.params}
        for k in range(1, 8):
            m.ema_update(teacher, student, decay)
            for name in teacher.params:
                gap = teacher.params[name].data - student.params[name].data
                np.testing.assert_allclose(gap, decay ** k * start_gap[name],
                                           atol=1e-10)

    def test_contraction_for_interior_decay(self, student):
        teacher = m.make_teacher(student)
        teacher.params["head.conv"].data += 2.0
        before = np.abs(teacher.params["head.conv"].data
                        - student.params["head.conv"].data).max()
        m.ema_update(teacher, student, 0.99)
        after = np.abs(teacher.params["head.conv"].data
                       - student.params["head.conv"].data).max()
        assert after < before

    def test_in_place_update_is_bit_identical_to_the_allocating_formula(self):
        student = m.to_float32(m.init_student(seed=4))
        teacher = m.make_teacher(student)
        held = {name: p.data for name, p in teacher.named()}
        expected = {name: p.data.copy() for name, p in teacher.named()}
        rng = np.random.default_rng(9)
        for decay in (0.99, 0.5, 0.999):
            for p in student.params.values():
                p.data += rng.normal(scale=0.01, size=p.data.shape).astype(np.float32)
            m.ema_update(teacher, student, decay)
            for name, p in teacher.named():
                student_data = student.params[name].data
                expected[name] = decay * expected[name] + (1.0 - decay) * student_data
                assert p.data is held[name]   # a caller's reference sees the update
                assert p.data.dtype == np.float32
                assert p.data.tobytes() == expected[name].tobytes(), name

    def test_name_mismatch_rejected(self, student):
        teacher = m.make_teacher(student)
        del teacher.params["head.conv"]
        with pytest.raises(InputError):
            m.ema_update(teacher, student, 0.99)

    def test_bad_decay_rejected(self, student):
        teacher = m.make_teacher(student)
        with pytest.raises(InputError):
            m.ema_update(teacher, student, 1.5)


class TestTeacherIsolation:
    def test_teacher_untouched_by_backward_and_sgd(self, student):
        teacher = m.make_teacher(student)
        frozen = {k: v.data.copy() for k, v in teacher.named()}

        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(size=(1, 3, 16, 16)))
        labels = rng.integers(0, NUM_CLASSES, size=(1, 16, 16))
        loss = tc.softmax_cross_entropy(m.forward(student, x).logits, labels)
        tc.backward(loss)
        opt = tc.SGD(student.params, lr=0.1, momentum=0.9)
        opt.step()

        for name, arr in frozen.items():
            assert teacher.params[name].grad is None
            np.testing.assert_array_equal(teacher.params[name].data, arr)

    def test_student_and_teacher_share_structure(self, student):
        teacher = m.make_teacher(student)
        assert set(teacher.params) == set(student.params)
        for name, p in teacher.named():
            assert p.data.shape == student.params[name].data.shape
            assert not p.requires_grad


class TestCheckpoints:
    def test_round_trip(self, tmp_path, student):
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, student.data_arrays())
        loaded = m.load_checkpoint(path)
        assert set(loaded) == set(student.params)
        for name, arr in loaded.items():
            np.testing.assert_array_equal(arr, student.params[name].data)

    def test_magic_header(self, tmp_path, student):
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, student.data_arrays())
        assert path.read_bytes()[:8] == m.CHECKPOINT_MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTCKPT0" + bytes(16))
        with pytest.raises(InputError):
            m.load_checkpoint(path)

    def test_state_from_arrays_names_missing_and_unexpected(self, student):
        arrays = student.data_arrays()
        arrays["head.bias"] = arrays.pop("gvi.conv")
        with pytest.raises(InputError, match="missing gvi.conv; unexpected head.bias"):
            m.state_from_arrays(arrays, "student")

    def test_state_from_arrays_roles(self, student):
        arrays = student.data_arrays()
        st = m.state_from_arrays(arrays, "student")
        te = m.state_from_arrays(arrays, "teacher")
        assert all(p.requires_grad for p in st.params.values())
        assert not any(p.requires_grad for p in te.params.values())
