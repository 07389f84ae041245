import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

import refaudit.phantom as phantom
from refaudit.masks import face_roi, head_mask
from refaudit.phantom import (
    INTENSITY_BACKGROUND,
    INTENSITY_BRAIN,
    INTENSITY_SKULL,
    INTENSITY_SOFT,
    NOISE_LATTICE_STEP,
    SHELL_BAND,
    PhantomGeometry,
    PhantomParams,
    _derive_geometry,
    _ellipsoid,
    generate_cohort,
    generate_phantom,
)
from refaudit.surface import marching_cubes
from refaudit.volume import _trilinear_at

SMALL = PhantomParams(head_radii=(60.0, 62.0, 60.0), nose_length=14.0,
                      dims=(64, 64, 64), spacing=(3.0, 3.0, 3.0))


def rasterize_whole_grid(seed, params):
    """The rasterizer on the whole grid at once, as it was before it ran in
    blocks of x-planes: the reference the blocked one must equal bit for bit."""
    geom = _derive_geometry(seed, params)
    nx, ny, nz = params.dims
    sx, sy, sz = params.spacing
    origin = [-(d - 1) / 2.0 * s for d, s in zip(params.dims, params.spacing)]
    coords = ((np.arange(nx) * sx + origin[0])[:, None, None],
              (np.arange(ny) * sy + origin[1])[None, :, None],
              (np.arange(nz) * sz + origin[2])[None, None, :])
    f_head = _ellipsoid(coords, geom.head_center, geom.head_radii)
    brain = _ellipsoid(coords, geom.brain_center, geom.brain_radii) <= 1.0
    shell = (f_head >= SHELL_BAND[0]) & (f_head <= SHELL_BAND[1]) & ~brain
    soft = geom._head_union(coords, f_head) & ~brain & ~shell
    data = np.full(params.dims, INTENSITY_BACKGROUND)
    data[brain] = INTENSITY_BRAIN
    data[shell] = INTENSITY_SKULL
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    lattice = rng.standard_normal(tuple(d // NOISE_LATTICE_STEP + 2 for d in params.dims))
    noise = np.clip(_trilinear_at(lattice, [np.arange(d) / NOISE_LATTICE_STEP
                                            for d in params.dims]), -2.5, 2.5)
    data[soft] = INTENSITY_SOFT + params.noise_amplitude * noise[soft]
    return data, brain


class TestGeneratePhantom:
    @pytest.mark.parametrize("seed, params", [
        (0, PhantomParams()),
        (5, SMALL),
        (2**32 - 1, replace(SMALL, noise_amplitude=8.0)),
        # x not a multiple of the block, and unequal axes and spacings
        (17, PhantomParams(head_radii=(62.0, 70.0, 66.0), nose_length=30.0, noise_amplitude=0.0,
                           dims=(45, 90, 56), spacing=(3.5, 2.5, 3.0))),
    ])
    def test_equals_the_whole_grid_rasterizer(self, seed, params):
        vol, brain, _ = generate_phantom(seed, params)
        want_data, want_brain = rasterize_whole_grid(seed, params)
        assert vol.data.tobytes() == want_data.tobytes()
        assert np.array_equal(brain.data, want_brain)

    def test_default_phantom_allocates_little_beyond_what_it_returns(self):
        # it returns 18 MiB (float64 volume and bool brain); the whole-grid
        # rasterizer peaked at 70 MiB
        generate_phantom(0)  # imports and lazy set-up are not counted
        tracemalloc.start()
        try:
            generate_phantom(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_same_seed_and_params_bitwise_identical(self):
        a, brain_a, _ = generate_phantom(5, SMALL)
        b, brain_b, _ = generate_phantom(5, SMALL)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(brain_a.data, brain_b.data)

    def test_different_seeds_differ(self):
        a, _, _ = generate_phantom(5, SMALL)
        b, _, _ = generate_phantom(6, SMALL)
        assert not np.array_equal(a.data, b.data)

    def test_brain_inside_head_mask(self, small_phantom, small_head):
        _, brain, _ = small_phantom
        assert not (brain.data & ~small_head.data).any()

    def test_intensity_modes_present(self, small_phantom):
        vol, _, geom = small_phantom
        amp = geom.params.noise_amplitude
        data = vol.data
        assert (data == 0).sum() > 0
        assert (data == INTENSITY_SKULL).sum() > 0
        assert (np.abs(data - INTENSITY_SOFT) <= 2.5 * amp).sum() > 0
        assert (data == INTENSITY_BRAIN).sum() > 0

    def test_masks_are_single_components(self, small_phantom, small_head):
        _, brain, _ = small_phantom
        structure = np.ones((3, 3, 3))
        _, n_brain = ndimage.label(brain.data, structure=structure)
        _, n_head = ndimage.label(small_head.data, structure=structure)
        assert n_brain == 1 and n_head == 1

    def test_nose_growth_bounded_by_analytic_offset(self):
        from dataclasses import replace

        vol1, _, g1 = generate_phantom(2, SMALL)
        vol2, _, g2 = generate_phantom(2, replace(SMALL, nose_length=SMALL.nose_length + 3.0))
        assert g2.nose_tip()[1] - g1.nose_tip()[1] == pytest.approx(3.0)
        m1 = marching_cubes(face_roi(head_mask(vol1)))
        m2 = marching_cubes(face_roi(head_mask(vol2)))

        center, radii = np.array(g2.nose_center), np.array(g2.nose_radii)

        def nose_verts(mesh):
            rel = (mesh.vertices - center) / radii
            keep = ((rel**2).sum(axis=1) <= 1.3**2) & (rel[:, 1] > 0.2)
            return mesh.vertices[keep]

        v1, v2 = nose_verts(m1), nose_verts(m2)
        d12 = cKDTree(m2.vertices).query(v1)[0].mean()
        d21 = cKDTree(m1.vertices).query(v2)[0].mean()
        region_masd = 0.5 * (d12 + d21)
        assert 0.0 < region_masd <= 3.0

    def test_out_of_range_params_raise(self):
        with pytest.raises(ValueError):
            PhantomParams(head_radii=(50.0, 80.0, 75.0))
        with pytest.raises(ValueError):
            PhantomParams(nose_length=45.0)
        with pytest.raises(ValueError):
            PhantomParams(noise_amplitude=20.0)

    def test_phantom_must_fit_grid(self):
        with pytest.raises(ValueError, match="fit"):
            generate_phantom(0, PhantomParams(head_radii=(95.0, 100.0, 95.0),
                                              nose_length=40.0,
                                              dims=(64, 64, 64), spacing=(2.0, 2.0, 2.0)))

    def test_geometry_record_roundtrips_to_json(self, small_phantom):
        _, _, geom = small_phantom
        d = geom.to_json_dict()
        assert d["dims"] == [64, 64, 64]
        assert d["intensities"]["brain"] == INTENSITY_BRAIN
        assert len(d["head_radii"]) == 3

    def test_geometry_json_holds_every_field_of_the_record_and_its_params(self, small_phantom):
        _, _, geom = small_phantom
        d = geom.to_json_dict()
        records = [(geom, f.name) for f in fields(PhantomGeometry) if f.name != "params"]
        records += [(geom.params, f.name) for f in fields(PhantomParams)]
        assert set(d) == {name for _, name in records} | {"shell_band", "intensities"}
        for record, name in records:
            value = getattr(record, name)
            assert d[name] == (list(value) if isinstance(value, tuple) else value), name
        assert d["shell_band"] == list(SHELL_BAND)


class TestGenerateCohort:
    def test_two_members_are_distinct(self):
        cohort = generate_cohort(2, seed=9, base=SMALL)
        assert not np.array_equal(cohort[0].volume.data, cohort[1].volume.data)
        assert cohort[0].subject_id != cohort[1].subject_id

    def test_same_arguments_reproduce_cohort(self):
        a = generate_cohort(3, seed=4, base=SMALL)
        b = generate_cohort(3, seed=4, base=SMALL)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.volume.data, cb.volume.data)

    def test_jitter_within_configured_bounds(self):
        cohort = generate_cohort(30, seed=11, base=SMALL)
        for case in cohort:
            for r, base_r in zip(case.geometry.head_radii, SMALL.head_radii):
                assert 0.93 * base_r - 1e-9 <= r <= 1.07 * base_r + 1e-9
                assert 60.0 <= r <= 100.0
            assert abs(case.geometry.params.nose_length - SMALL.nose_length) <= 4.0 + 1e-9

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_cohort(0, seed=0)

    def test_cases_rasterize_on_first_read_and_keep_it(self, monkeypatch):
        built = []

        def counting(seed, params=None):
            built.append(threading.current_thread())
            return real(seed, params)

        real = phantom.generate_phantom
        monkeypatch.setattr(phantom, "generate_phantom", counting)
        cohort = generate_cohort(3, seed=4, base=SMALL)
        assert built == []
        case = cohort[1]
        vol, brain = case.volume, case.brain
        assert len(built) == 1
        assert case.volume is vol and case.brain is brain
        want_vol, want_brain, _ = real(case.geometry.seed, case.geometry.params)
        assert np.array_equal(vol.data, want_vol.data)
        assert np.array_equal(brain.data, want_brain.data)
        # a copy is unbuilt and builds its own arrays; the original keeps its own
        copy = replace(case)
        assert copy == case and len(built) == 1
        assert copy.volume is not vol and np.array_equal(copy.volume.data, vol.data)
        assert len(built) == 2 and case.volume is vol

    def test_a_base_that_does_not_fit_raises_before_any_rasterizing(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("generate_cohort rasterized a phantom")

        monkeypatch.setattr(phantom, "generate_phantom", never)
        with pytest.raises(ValueError, match="does not fit the grid"):
            generate_cohort(2, seed=0, base=PhantomParams(dims=(64, 64, 64)))
