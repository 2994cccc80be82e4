"""Harmonic-field navigation for a differential-drive UGV over a lossy network.

The package closes the loop camera -> edge map -> potential field -> curve
tracking controller -> plant, with configurable transport delay in both
directions, and ships a fast-marching planner for comparison.
"""

from .workspace import (
    AgentSpec,
    CameraConfig,
    ControlConfig,
    DelayConfig,
    Disc,
    EdgeMap,
    GridImage,
    LookaheadConfig,
    Rect,
    Scenario,
    VisionConfig,
    WorldPose,
    load_image,
    load_scenario,
    pixel_to_world,
    rasterize,
    scenario_from_dict,
    world_to_pixel,
    wrap_angle,
)
from .vision import detect_edges, make_gog, make_log, convolve, zero_cross
from .hpf import (
    FREE,
    OBSTACLE,
    TARGET,
    BoundaryGrid,
    GradientField,
    PotentialField,
    build_boundary,
    descend,
    gradient,
    relax,
)
from .controller import BodyError, Command, body_errors, curve_coeff, command
from .guidance import ReferencePoint, guidance_step, lookahead, ref_point
from .plant import observe, step
from .fm import cost_ratio, fm_arrival, fm_path, path_reference
from .netloop import (
    DelayLine,
    MultiRunLog,
    Packet,
    RunLog,
    prepare,
    run_loop,
    run_multi,
)
from .analysis import curvature, distance_error, ideal_path, sweep
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "AgentSpec", "CameraConfig", "ControlConfig", "DelayConfig", "Disc",
    "EdgeMap", "GridImage", "LookaheadConfig", "Rect",
    "Scenario", "VisionConfig", "WorldPose",
    "load_image", "load_scenario", "pixel_to_world", "rasterize",
    "scenario_from_dict", "world_to_pixel", "wrap_angle",
    "detect_edges", "make_gog", "make_log", "convolve", "zero_cross",
    "FREE", "OBSTACLE", "TARGET", "BoundaryGrid", "GradientField",
    "PotentialField", "build_boundary", "descend", "gradient", "relax",
    "BodyError", "Command", "body_errors", "curve_coeff", "command",
    "ReferencePoint", "guidance_step", "lookahead", "ref_point",
    "observe", "step",
    "cost_ratio", "fm_arrival", "fm_path", "path_reference",
    "DelayLine", "MultiRunLog", "Packet", "RunLog", "prepare", "run_loop", "run_multi",
    "curvature", "distance_error", "ideal_path", "sweep",
    "render_svg",
]
