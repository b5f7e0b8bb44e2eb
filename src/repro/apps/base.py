"""Base classes for the synthetic 3D benchmark applications.

Every benchmark is an :class:`Application3D`: a frame-oriented loop that
consumes user inputs, advances a scene of randomly generated / placed
objects, and emits :class:`~repro.graphics.frame.Frame` objects for the
rendering pipeline.  The per-application behaviour is captured by two
value objects:

:class:`ApplicationProfile`
    Resource-demand parameters (application-logic time, CPU demand and
    memory intensity, GPU render time and cache behaviour, memory
    footprints, per-frame upload traffic, scene-change rate) calibrated to
    the paper's single-instance characterization (Figures 8, 9, 13–16).

:class:`SceneDynamics`
    How the scene evolves: object classes present, spawn/despawn rates,
    motion, and how the ground-truth "correct" action is computed from the
    visible objects.  The ground-truth action model is what the synthetic
    human player follows (with reaction delay and noise) and what the
    intelligent client's CNN+LSTM learns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.graphics.frame import Frame, ObjectClass, SceneObject
from repro.hardware.cpu import StageCpuProfile
from repro.hardware.gpu import GpuWorkloadProfile
from repro.sim.randomness import StreamRandom

__all__ = ["Action", "Application3D", "ApplicationProfile", "InputKind",
           "SceneDynamics"]


class InputKind(enum.Enum):
    """The input device class a benchmark expects."""

    KEYBOARD = "keyboard"
    MOUSE = "mouse"
    KEYBOARD_MOUSE = "keyboard_mouse"
    HMD = "hmd"                      # VR head-mounted display pose updates


@dataclass
class Action:
    """One user action, as a continuous control vector plus a discrete key.

    ``steer`` and ``pitch`` are in [-1, 1] (mouse/HMD axes or steering
    keys), ``primary`` indicates the main discrete action (fire / select /
    accelerate), matching the low-dimensional encoding the LSTM produces.
    """

    steer: float = 0.0
    pitch: float = 0.0
    primary: bool = False
    issued_at: Optional[float] = None

    def as_vector(self) -> np.ndarray:
        return np.array([self.steer, self.pitch, 1.0 if self.primary else 0.0])

    @staticmethod
    def from_vector(vector: np.ndarray, issued_at: Optional[float] = None) -> "Action":
        return Action(steer=min(max(float(vector[0]), -1.0), 1.0),
                      pitch=min(max(float(vector[1]), -1.0), 1.0),
                      primary=bool(vector[2] > 0.5),
                      issued_at=issued_at)

    def distance(self, other: "Action") -> float:
        """L1 distance between two actions' control vectors."""
        return float(np.sum(np.abs(self.as_vector() - other.as_vector())))


@dataclass(frozen=True)
class ApplicationProfile:
    """Static resource-demand description of one benchmark."""

    name: str
    short_name: str
    genre: str
    input_kind: InputKind = InputKind.KEYBOARD_MOUSE
    is_vr: bool = False
    open_source: bool = True
    opengl_version: str = "3.3"

    # Application logic (stage AL)
    al_ms: float = 14.0                 # nominal per-frame logic time, idle machine
    al_cv: float = 0.20                 # coefficient of variation of AL time
    cpu_demand: float = 1.2             # cores kept busy during AL
    memory_intensity: float = 0.6       # exposure to memory-system contention
    working_set_mb: float = 6.0         # L3 pressure contributed by this app
    cpu_memory_mb: float = 1500.0       # resident set size (Figure 8 discussion)
    base_l3_miss_rate: float = 0.72     # standalone L3 miss rate (Figure 15)

    # GPU rendering (stage RD)
    render_ms: float = 7.0              # nominal GPU time for an average frame
    render_cv: float = 0.25
    gpu_profile: GpuWorkloadProfile = field(default_factory=GpuWorkloadProfile)

    # Per-frame CPU→GPU upload (vertex/texture streaming; Figure 9 "send-to GPU")
    upload_bytes_per_frame: float = 0.4e6

    # Scene dynamics
    scene_change_mean: float = 0.30     # fraction of pixels changed per frame
    scene_change_cv: float = 0.35
    complexity_cv: float = 0.20

    # Interaction
    human_apm: float = 300.0            # actions per minute of a skilled player
    reaction_time_ms: float = 220.0     # human reaction latency
    reaction_time_std_ms: float = 60.0

    def __post_init__(self) -> None:
        if self.al_ms <= 0 or self.render_ms <= 0:
            raise ValueError("stage times must be positive")
        if self.cpu_demand <= 0:
            raise ValueError("cpu_demand must be positive")
        if not 0.0 <= self.scene_change_mean <= 1.0:
            raise ValueError("scene_change_mean must be in [0, 1]")
        if self.human_apm <= 0:
            raise ValueError("human_apm must be positive")

    @property
    def al_cpu_profile(self) -> StageCpuProfile:
        """The Top-Down / contention profile of the application-logic stage."""
        return StageCpuProfile(
            demand=self.cpu_demand,
            memory_intensity=self.memory_intensity,
            base_retiring=0.28,
            base_frontend=0.12,
            base_bad_speculation=0.06,
            working_set_mb=self.working_set_mb,
        )

    @property
    def actions_per_second(self) -> float:
        return self.human_apm / 60.0


@dataclass(frozen=True)
class SceneDynamics:
    """How a benchmark's scene evolves and how it should be played.

    ``object_classes`` and ``object_counts`` describe what a frame contains;
    ``spawn_rate`` new objects appear per second at random positions (the
    randomness that defeats record-and-replay input generation);
    ``object_speed`` scales random motion; ``steer_class`` identifies the
    object class whose horizontal position determines the correct steering
    (track for the racing game, enemies for the shooter, ...), and
    ``primary_class`` the class whose presence should trigger the primary
    action.
    """

    object_classes: tuple[ObjectClass, ...] = (ObjectClass.TARGET,)
    object_counts: tuple[int, ...] = (3,)
    spawn_rate: float = 1.5
    despawn_rate: float = 1.0
    object_speed: float = 0.15
    steer_class: ObjectClass = ObjectClass.TARGET
    primary_class: Optional[ObjectClass] = None
    primary_trigger_distance: float = 0.25
    viewpoint_sensitivity: float = 0.35   # how much steering moves the scene

    def __post_init__(self) -> None:
        if len(self.object_classes) != len(self.object_counts):
            raise ValueError("object_classes and object_counts must align")
        if self.spawn_rate < 0 or self.despawn_rate < 0:
            raise ValueError("spawn/despawn rates cannot be negative")


class Application3D:
    """A synthetic interactive 3D application.

    The session drives it frame by frame: ``apply_actions`` consumes the
    inputs delivered since the previous frame, ``advance`` steps the scene
    and returns the next :class:`Frame`, and ``sample_al_time`` /
    ``sample_render_time`` provide the stochastic stage durations the
    pipeline charges to the CPU and GPU.
    """

    profile: ApplicationProfile = ApplicationProfile(
        name="Generic3D", short_name="GEN", genre="generic")
    dynamics: SceneDynamics = SceneDynamics()

    def __init__(self, rng: Optional[StreamRandom] = None,
                 width: int = 1920, height: int = 1080):
        self.rng = rng or StreamRandom(0)
        self.width = width
        self.height = height
        self.objects: list[SceneObject] = []
        self.viewpoint = 0.0
        self.frame_index = 0
        self.score = 0.0
        #: Exponential moving average of user activity relative to the
        #: expected input rate.  1.0 means the scene is being driven as hard
        #: as a skilled human would drive it; 0.0 means the app idles.  The
        #: activity level feeds back into frame complexity, scene change and
        #: application-logic time, which is what makes the benchmark's
        #: performance depend on *realistic* input generation (Section 1).
        self.activity_level = 1.0
        self._pending_actions: list[Action] = []
        self._populate_initial_scene()

    # -- scene management ----------------------------------------------------
    def _populate_initial_scene(self) -> None:
        for object_class, count in zip(self.dynamics.object_classes,
                                       self.dynamics.object_counts):
            for _ in range(count):
                self.objects.append(self._spawn_object(object_class))

    def _spawn_object(self, object_class: ObjectClass) -> SceneObject:
        speed = self.dynamics.object_speed
        return SceneObject(
            object_class=object_class,
            x=self.rng.uniform(0.05, 0.95),
            y=self.rng.uniform(0.05, 0.95),
            size=self.rng.uniform(0.04, 0.10),
            velocity_x=self.rng.uniform(-speed, speed),
            velocity_y=self.rng.uniform(-speed, speed),
        )

    # -- input handling --------------------------------------------------------
    def apply_actions(self, actions: list[Action]) -> None:
        """Queue user actions; they take effect at the next ``advance``."""
        self._pending_actions.extend(actions)

    # -- frame production ---------------------------------------------------------
    def advance(self, dt: float) -> Frame:
        """Advance the scene by ``dt`` seconds and produce the next frame."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        steer = 0.0
        for action in self._pending_actions:
            steer += action.steer
            if action.primary:
                self.score += 1.0

        # Update the activity level: how many inputs arrived this frame
        # relative to how many a skilled human would have issued in ``dt``.
        # The EMA smooths over frames (most frames see no input even under a
        # fully engaged player) and is clamped only after smoothing.
        expected_inputs = max(self.profile.actions_per_second * dt, 1e-6)
        instantaneous = len(self._pending_actions) / expected_inputs
        smoothing = min(1.0, dt * 2.0)
        self.activity_level += smoothing * (instantaneous - self.activity_level)
        self.activity_level = min(max(self.activity_level, 0.0), 2.0)
        self._pending_actions.clear()

        self.viewpoint = min(max(
            self.viewpoint + steer * self.dynamics.viewpoint_sensitivity * dt,
            -1.0), 1.0)

        shift = -steer * self.dynamics.viewpoint_sensitivity * dt
        updated: list[SceneObject] = []
        for obj in self.objects:
            moved = obj.advanced(dt, shift)
            if self.rng.random() > self.dynamics.despawn_rate * dt:
                updated.append(moved)
        expected_spawns = self.dynamics.spawn_rate * dt
        spawns = int(expected_spawns) + (1 if self.rng.random() < expected_spawns % 1 else 0)
        for _ in range(spawns):
            updated.append(self._spawn_object(self.rng.choice(
                list(self.dynamics.object_classes))))
        self.objects = updated

        frame = Frame(
            width=self.width, height=self.height,
            objects=list(self.objects),
            complexity=self._sample_complexity(),
            scene_change=self._sample_scene_change(abs(steer)),
            frame_id=self.frame_index + 1,
        )
        self.frame_index += 1
        return frame

    def _activity_factor(self) -> float:
        """How much the current interaction level inflates per-frame work.

        An idle scene (no inputs) still animates, but a driven scene has
        more motion, more draw calls and more game logic; this is why the
        paper insists benchmark inputs must resemble real human inputs.
        """
        return 0.70 + 0.30 * min(self.activity_level, 1.5)

    def _sample_complexity(self) -> float:
        mean = self._activity_factor()
        return max(0.2, self.rng.lognormal_mean_cv(mean, self.profile.complexity_cv))

    def _sample_scene_change(self, steer_magnitude: float) -> float:
        base = (self.profile.scene_change_mean * self._activity_factor()
                * (1.0 + 0.5 * min(steer_magnitude, 1.0)))
        return min(max(
            self.rng.lognormal_mean_cv(max(base, 1e-3), self.profile.scene_change_cv),
            0.01), 1.0)

    # -- stage-time sampling -----------------------------------------------------------
    def sample_al_time(self) -> float:
        """Nominal application-logic time for the next frame (seconds)."""
        mean = self.profile.al_ms * 1e-3 * self._activity_factor()
        return self.rng.lognormal_mean_cv(mean, self.profile.al_cv)

    def sample_render_time(self) -> float:
        """Nominal GPU render time for the next frame (seconds)."""
        return self.rng.lognormal_mean_cv(self.profile.render_ms * 1e-3,
                                          self.profile.render_cv)

    def sample_upload_bytes(self) -> float:
        """CPU→GPU bytes streamed for the next frame."""
        return self.rng.jitter(self.profile.upload_bytes_per_frame, 0.3)

    # -- ground-truth interaction model ----------------------------------------------------
    def correct_action(self, frame: Frame) -> Action:
        """The "right" response to a frame, used by the human model and
        as the label source when training the intelligent client."""
        steer_targets = frame.objects_of_class(self.dynamics.steer_class)
        if steer_targets:
            mean_x = float(np.mean([o.x for o in steer_targets]))
            steer = min(max((mean_x - 0.5) * 2.0, -1.0), 1.0)
            mean_y = float(np.mean([o.y for o in steer_targets]))
            pitch = min(max((0.5 - mean_y) * 2.0, -1.0), 1.0)
        else:
            steer, pitch = 0.0, 0.0

        primary = False
        if self.dynamics.primary_class is not None:
            for obj in frame.objects_of_class(self.dynamics.primary_class):
                if abs(obj.x - 0.5) < self.dynamics.primary_trigger_distance:
                    primary = True
                    break
        return Action(steer=steer, pitch=pitch, primary=primary)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} frame={self.frame_index} objects={len(self.objects)}>"
