"""Camera view of the red strip and the normalized area ratio.

A pinhole camera sits at the anchor looking along +y, so a horizontal
extent w_x at depth p_Dy projects to w_img = focal_px / p_Dy * w_x pixels.
The ratio r_img normalizes w_img by its value at the full-contact depth
d_sc; both the focal length and the strip length cancel in the quotient,
which is computed in cancelled form so those invariances are exact.

Synthetic frames stand in for the real camera: a centered pure-red band on
white, wide enough to exercise the column-counting detector end to end.
At the default intrinsics the band at d_sc is wider than the frame and gets
clipped; pick a shorter focal length (e.g. 100 px) when the full sweep must
stay in view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kinematics import CavsGeometry, GeometryInfeasible, JointState, solve_joint_angles


class BehindCamera(ValueError):
    """Strip end at or behind the camera plane (p_Dy <= 0)."""


class NotCalibrated(RuntimeError):
    """Operation needs the full-contact reference width; calibrate first."""


@dataclass(frozen=True)
class CameraModel:
    focal_px: float = 300.0
    image_width_px: int = 320
    image_height_px: int = 240
    w_SCimg: float | None = None  # set by calibrate_sc_reference
    noise_std_pct: float = 0.0

    def __post_init__(self) -> None:
        if not self.focal_px > 0:
            raise ValueError(f"focal_px must be positive, got {self.focal_px}")
        if self.image_width_px < 16 or self.image_height_px < 16:
            raise ValueError("image dimensions must be at least 16 px")
        if self.w_SCimg is not None and not self.w_SCimg > 0:
            raise ValueError(f"w_SCimg must be positive when set, got {self.w_SCimg}")
        if self.noise_std_pct < 0:
            raise ValueError("noise_std_pct must be >= 0")


@dataclass(frozen=True)
class SyntheticFrame:
    pixels: bytes  # row-major 8-bit RGB
    width: int
    height: int


def _pinhole_width(cam: CameraModel, geom: CavsGeometry, p_dy: float, cos_g: float) -> float:
    """Image width in pixels of a strip whose end lies p_dy in front of the
    camera and whose angle gamma has cosine cos_g."""
    if p_dy <= 0:
        raise BehindCamera(f"strip end depth {p_dy:g} mm is not in front of the camera")
    return cam.focal_px / p_dy * (geom.l_r * max(0.0, cos_g))


def image_width_wimg(cam: CameraModel, state: JointState, geom: CavsGeometry) -> float:
    """Projected strip width in pixels at the given state."""
    return _pinhole_width(cam, geom, state.p_D[1], math.cos(state.gamma))


def calibrate_sc_reference(cam: CameraModel, geom: CavsGeometry) -> CameraModel:
    """Camera with w_SCimg set to the projected width at d = d_sc.

    Idempotent: recalibrating an already-calibrated camera sets the same
    reference, the d_sc strip the geometry's FingertipModel keeps from
    construction (reference_strip), which red_area_ratio divides by too.
    Raises GeometryInfeasible when d_sc is past the branch end or the strip
    shows no width there, BehindCamera when its end is not in front of the
    camera.
    """
    w = _pinhole_width(cam, geom, *geom.model.reference_strip())
    if not w > 0.0:
        raise GeometryInfeasible(f"the strip shows no width in the image at d_sc={geom.d_sc:g}")
    return replace(cam, w_SCimg=w)


def red_area_ratio(cam: CameraModel, geom: CavsGeometry, d: float) -> float:
    """Normalized red-area ratio at deformation d (1.0 = the d_sc width).

    Evaluated in cancelled form, (p_Dy(d_sc) * cos gamma(d)) /
    (p_Dy(d) * cos gamma(d_sc)), so the result is bit-for-bit independent
    of focal_px and l_r.  The four values are the only ones read from the
    geometry's FingertipModel, no pose is formed, and the d_sc pair is the
    reference strip the model keeps from construction, found on the same
    path as the strip at d, so the ratio at d_sc is exactly 1.0.  The
    calibrated reference gates the workflow and scales the pixel detector;
    it does not enter this quotient.
    """
    if cam.w_SCimg is None:
        raise NotCalibrated("red_area_ratio requires a calibrated camera")
    model = geom.model
    p_dy, cos_g = model.strip(d)
    if p_dy <= 0:
        raise BehindCamera(f"strip end depth {p_dy:g} mm at d={d:g}")
    p_dy_sc, cos_g_sc = model.reference_strip()
    return (p_dy_sc * max(0.0, cos_g)) / (p_dy * cos_g_sc)


def reported_ratio(cam: CameraModel, geom: CavsGeometry, d: float,
                   rng: np.random.Generator | None = None) -> float:
    """red_area_ratio plus the camera's Gaussian measurement noise.

    noise_std_pct is in percentage points; with it zero (the default) the
    report equals the analytic ratio exactly.
    """
    r = red_area_ratio(cam, geom, d)
    if rng is not None and cam.noise_std_pct > 0:
        r += rng.normal(0.0, cam.noise_std_pct) / 100.0
    return r


def render_synthetic_frame(cam: CameraModel, geom: CavsGeometry, d: float) -> SyntheticFrame:
    """White frame with a centered pure-red band of extent round(w_img).

    Bands wider than the frame are clipped to the frame width; w_img < 0.5
    renders no red at all (quantization floor).  Deterministic.
    """
    state = solve_joint_angles(geom, d)
    w_img = image_width_wimg(cam, state, geom)
    w, h = cam.image_width_px, cam.image_height_px
    extent = min(int(round(w_img)), w)
    img = np.full((h, w, 3), 255, dtype=np.uint8)
    if extent > 0:
        x0 = (w - extent) // 2
        img[h // 3: 2 * h // 3, x0:x0 + extent, 0] = 255
        img[h // 3: 2 * h // 3, x0:x0 + extent, 1] = 0
        img[h // 3: 2 * h // 3, x0:x0 + extent, 2] = 0
    return SyntheticFrame(pixels=img.tobytes(), width=w, height=h)


def detect_red_ratio(frame: SyntheticFrame, cam: CameraModel) -> float:
    """Ratio recovered from pixels: red-column count / w_SCimg.

    A pixel is red iff R >= 200 and G <= 50 and B <= 50.  An all-white
    frame yields 0.0 (not an error).
    """
    if cam.w_SCimg is None:
        raise NotCalibrated("detect_red_ratio requires a calibrated camera")
    img = np.frombuffer(frame.pixels, dtype=np.uint8).reshape(frame.height, frame.width, 3)
    red = (img[:, :, 0] >= 200) & (img[:, :, 1] <= 50) & (img[:, :, 2] <= 50)
    return int(red.any(axis=0).sum()) / cam.w_SCimg


def frame_to_ppm(frame: SyntheticFrame) -> bytes:
    """Binary PPM (P6) encoding, bit-exact."""
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    return header + frame.pixels


def ppm_to_frame(data: bytes) -> SyntheticFrame:
    """Parse a binary PPM (P6) produced by frame_to_ppm."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":  # comment line
            pos = data.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    pixels = data[pos:pos + 3 * width * height]
    if len(pixels) != 3 * width * height:
        raise ValueError("truncated pixel data")
    return SyntheticFrame(pixels=pixels, width=width, height=height)
