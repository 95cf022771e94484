"""Variable-friction fingertip simulator.

Linkage kinematics of the contact-area-variable fingertip, the camera-based
red-area ratio that senses its friction mode, the anisotropic friction and
press-force model, the per-finger deadband mode controller, and a two-finger
gripper plant that closes the loop on a compliant object.
"""
from .config import Config, ConfigError, Scenario, load_config, load_scenario, parse_config, \
    parse_scenario
from .control import ControllerConfig, FingerCommand, control_step, dual_finger_step
from .friction import ContactState, Direction, DivisionDomain, FrictionParams, PressCurve, \
    classify_contact_state, ecmsf, max_resistible_force, max_resistible_force_at, press_curve, \
    pressing_force
from .kinematics import CavsGeometry, GeometryInfeasible, JointState, RestPose, SolverFailure, \
    deformation_limits, forward_points, projected_width_wx, rest_pose, solve_joint_angles
from .plant import NO_CONTACT, Disturbance, GripperWorld, ObjectModel, PlantState, \
    ScenarioStep, SlideOutcome, StepSummary, TimeSeriesRecord, default_slide_demand, \
    equilibrium_solve, make_world, records_to_csv, run_scenario, scenario_step, slide_check
from .sensing import BehindCamera, CameraModel, NotCalibrated, SyntheticFrame, \
    calibrate_sc_reference, detect_red_ratio, frame_to_ppm, image_width_wimg, ppm_to_frame, \
    red_area_ratio, render_synthetic_frame, reported_ratio

__version__ = "0.1.0"
