"""Generative motion estimation toolkit.

Subpackages are plain modules, imported lazily by callers:

- ``se3``: quaternion rotations, pose stacks and their composition, the motion chart
- ``vfnet``: small MLP vector field with analytic gradients and text checkpoints
- ``flowmatch``: linear-path flow matching loss and Adam training loop
- ``sampler``: fixed-step ODE solvers and repeated-sample pose estimation
- ``synthworld``: synthetic trajectories, condition encodings, dataset files
- ``trajeval``: trajectories, their composition, alignment, ATE, TUM and metrics files
- ``textio``: the float format and line-numbered reading every artifact file shares
- ``cli``: the ``motionflow`` command line front end
"""

__version__ = "0.1.0"
