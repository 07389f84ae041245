"""refaudit: defacing/refacing risk-audit toolkit on synthetic head phantoms."""

__version__ = "0.1.0"

from .volume import (
    BinaryMask,
    Volume3D,
    downsample,
    read_nifti,
    read_nifti_file,
    upsample_trilinear,
    write_nifti,
    write_nifti_file,
)
from .masks import face_roi, head_mask, otsu_threshold
from .deface import quickshear
from .surface import TriMesh, face_distance_report, marching_cubes, masd
from .quality import intersection_mask, psnr, quality_report, ssim
from .stats import (
    LmmFit,
    ObservationTable,
    StatSummary,
    bootstrap,
    correlation_report,
    fit_lmm,
    residualize,
    spearman,
    wilcoxon_signed_rank,
)
from .ddim import (
    CascadeConfig,
    DiffusionSchedule,
    SlabSpec,
    cascade_reface,
    ddim_step,
    make_schedule,
    merge_slabs,
    sample,
    stage2_slabs,
    uniform_steps,
)
from .phantom import PhantomParams, generate_cohort, generate_phantom
