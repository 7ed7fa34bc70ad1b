"""Neural-field reparameterized 2D geophysical inversion toolkit.

Forward problems: straight-ray cross-hole travel-time tomography and
finite-volume DC resistivity on 2D tensor meshes.  Inversion either in
model space (gradient descent / inexact Gauss-Newton with Tikhonov and
IRLS sparse norms) or reparameterized by the weights of a coordinate MLP
trained at test time with Adam, plus SVD analysis of the network weight
Jacobian.
"""

from nfinv.errors import (
    CapacityError,
    GeometryError,
    ManifestError,
    SolverError,
)
from nfinv.mesh import (
    TensorMesh,
    build_dcr_mesh,
    build_tomo_mesh,
    embed_core,
    normalized_centers,
)
from nfinv.encoding import encode
from nfinv.neural_field import (
    JacobianOperator,
    Mlp,
    forward,
    init_kaiming,
    load_checkpoint,
    save_checkpoint,
)
from nfinv.tomo import (
    CrossholeSurvey,
    RayMatrix,
    TomoSimulator,
    build_crosshole_survey,
    build_ray_matrix,
)
from nfinv.dcr import (
    DcrSimulator,
    DcrSurvey,
    FvSystem,
    assemble_system,
    build_dipole_dipole_survey,
)
from nfinv.scenarios import (
    add_noise,
    gaussian_random_field,
    make_case1,
    make_case2,
    make_case3,
    make_case4,
)
from nfinv.inversion import (
    Adam,
    InversionResult,
    Regularization,
    conventional_invert,
    data_misfit,
    nfs_invert,
)
from nfinv.svd_analysis import SvdResult, analyze_trained_network, truncated_svd
from nfinv.manifest import default_manifest, load_manifest, sub_seed
from nfinv.runner import run_case, simulate_case

__all__ = [
    "Adam",
    "CapacityError",
    "CrossholeSurvey",
    "DcrSimulator",
    "DcrSurvey",
    "FvSystem",
    "GeometryError",
    "InversionResult",
    "JacobianOperator",
    "ManifestError",
    "Mlp",
    "RayMatrix",
    "Regularization",
    "SolverError",
    "SvdResult",
    "TensorMesh",
    "TomoSimulator",
    "add_noise",
    "analyze_trained_network",
    "assemble_system",
    "build_crosshole_survey",
    "build_dcr_mesh",
    "build_dipole_dipole_survey",
    "build_ray_matrix",
    "build_tomo_mesh",
    "conventional_invert",
    "data_misfit",
    "default_manifest",
    "embed_core",
    "encode",
    "forward",
    "gaussian_random_field",
    "init_kaiming",
    "load_checkpoint",
    "load_manifest",
    "make_case1",
    "make_case2",
    "make_case3",
    "make_case4",
    "nfs_invert",
    "normalized_centers",
    "run_case",
    "save_checkpoint",
    "simulate_case",
    "sub_seed",
    "truncated_svd",
]

__version__ = "0.1.0"
