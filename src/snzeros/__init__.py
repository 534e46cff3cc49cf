"""Character table zeros of symmetric groups.

Exact character evaluation over bit-encoded partition boundaries, exact
zero censuses for small tables, and seeded Monte Carlo density estimation
for large ones.
"""

__version__ = "0.1.0"

from .errors import ResourceLimit, SnZerosError
from .mn import ZeroClass, character, classify
from .partitions import Partition, decode, dimension, encode, is_t_core
from .ptable import build_p_table
from .sampler import RNG_NAME, SampleStream, random_partition

__all__ = [
    "Partition",
    "RNG_NAME",
    "ResourceLimit",
    "SampleStream",
    "SnZerosError",
    "ZeroClass",
    "build_p_table",
    "character",
    "classify",
    "decode",
    "dimension",
    "encode",
    "is_t_core",
    "random_partition",
]
