"""Shape classification of Hadamard code groups.

A Hadamard code group (binary image with 2n words of length n, minimum
distance n/2) falls into one of five structural shapes, decided by a
normalized generating set: how many z-generators square to the all-order-2
word u, and how the equal-square pairs interact.  The classifier applies
the constructive substitutions and machine-verifies the witness relations.
"""

from z2z4q8 import classify_shape, code_type, kernel_dim, rank
from z2z4q8.fixtures import load_fixture

CASES = [
    ("hadamard8_z4", "quaternary presentation of the linear length-8 code"),
    ("hadamard16_z2z4_delta2", "mixed Z2/Z4 code with (r,k)=(6,3)"),
    ("hadamard16_q8", "pure quaternionic code with (r,k)=(7,2)"),
    ("hadamard8_z2q8_shape4", "Z2^4 x Q8 group with a linear image"),
    ("hadamard32_q8_shape5", "length-32 code outside the generic bounds"),
    ("hadamard32_q8_rank7", "length-32 code with (r,k)=(7,4)"),
]

for name, blurb in CASES:
    C = load_fixture(name)
    shape = classify_shape(C)
    print(f"{name:28s} type {code_type(C)}  r={rank(C)} k={kernel_dim(C)}")
    print(f"    shape {shape.tag}: {shape.structure}   # {blurb}")
    if shape.trail:
        for step in shape.trail:
            print(f"    - {step}")
    print(f"    epsilon {shape.epsilon}; z-generators:")
    for z in shape.witness.zs:
        print(f"        {z}")
print("done.")
