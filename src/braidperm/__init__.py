"""Shuffle-built block permutations, the braid-relation groups they generate,
and exhaustive verification of their structure at small parameters.

The package top level re-exports the names of the README quick tour and of
the verification entry point; everything else is imported from its module,
for example ``from braidperm.lattice import expected_kernel_structure``.
"""

from .claims import REGISTRY, RunConfig, run_verification
from .groups import abelian_kernel, braid_image, schreier_sims, split_complement, symmetric_group
from .lattice import kernel_structure
from .oracles import enumerate_roots, enumerate_shuffles
from .perm import Permutation, partition_count
from .shuffle import ShuffleSpec, build_pair, build_shuffle

__version__ = "0.1.0"
