from dataclasses import fields

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from refaudit.masks import face_roi, head_mask
from refaudit.phantom import (
    INTENSITY_BRAIN,
    INTENSITY_SKULL,
    INTENSITY_SOFT,
    SHELL_BAND,
    PhantomGeometry,
    PhantomParams,
    generate_cohort,
    generate_phantom,
)
from refaudit.surface import marching_cubes

SMALL = PhantomParams(head_radii=(60.0, 62.0, 60.0), nose_length=14.0,
                      dims=(64, 64, 64), spacing=(3.0, 3.0, 3.0))


class TestGeneratePhantom:
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
