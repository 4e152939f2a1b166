"""Machine builders and certificate lifts for the coded-word reductions."""

from .certificates import BlockSpan, RunCertificate
from .theta import build_theta_acceptor, theta_certificate
from .complement import (build_d1, build_d2, build_d3, build_d4,
                         build_h_complement)
from .script_l import build_script_l_guard, build_script_L, \
    covered_prefix_length, lift_run_script_L, project_run_script_L
from .phi import build_phi_wrapper, lift_run_phi
from .realtime8 import (build_realtime8, checked_pad_factor, lift_run_theta,
                        realtime8_pad_factor, theta_walk_length)
from .pipeline import PipelineOutput, compose_pipeline, lift_run_pipeline
from .wadge import wadge_sum

__all__ = [
    "BlockSpan", "RunCertificate",
    "build_theta_acceptor",
    "theta_certificate",
    "build_d1", "build_d2", "build_d3", "build_d4", "build_h_complement",
    "build_script_l_guard", "build_script_L", "covered_prefix_length",
    "lift_run_script_L", "project_run_script_L",
    "build_phi_wrapper", "lift_run_phi",
    "build_realtime8", "checked_pad_factor", "lift_run_theta",
    "realtime8_pad_factor", "theta_walk_length",
    "PipelineOutput", "compose_pipeline", "lift_run_pipeline",
    "wadge_sum",
]
