"""Walk through the algebra on the toy 23-element group.

Shows how tokens land in the quadratic-residue subgroup, why layered
masking commutes, and why every party applying its exponent once yields
the same value regardless of order.
"""

import random

from psualign import EncryptedIdentifier, compose, hash_token, make_group_params

group = make_group_params(23)
print(f"group: p={group.p}, q={group.q} ({group.p.bit_length()} bits)")

qr = sorted({(y * y) % group.p for y in range(1, group.p)})
print(f"quadratic residues mod 23: {qr}")

print("\nprojection of small hash values:")
for t in [0, 5, 22, 123456]:
    element = group.hash_to_element(t)
    print(f"  t={t:>6} -> {element:>2}  (membership: {group.contains(element)})")

token = "jos"
element = hash_token(token, group)
print(f"\nsha3('{token}') projects to {element}")

rng = random.Random(7)
s1 = group.sample_exponent(rng)
s2 = group.sample_exponent(rng)
x = 2
print(f"\ncommutativity with x={x}, s1={s1}, s2={s2}:")
print(f"  (x^s1)^s2 = {pow(pow(x, s1, group.p), s2, group.p)}")
print(f"  (x^s2)^s1 = {pow(pow(x, s2, group.p), s1, group.p)}")
print(f"  x^(s1*s2 mod q) = {pow(x, (s1 * s2) % group.q, group.p)}")

ident = EncryptedIdentifier(((2, 3, 13),))
forward = compose(ident, [s1, s2], group)
backward = compose(ident, [s2, s1], group)
print(f"\nidentifier (2, 3, 13) masked by both orders:")
print(f"  s1 then s2: {forward.features[0]}")
print(f"  s2 then s1: {backward.features[0]}")
print(f"  empty product is the identity: {compose(ident, [], group).features[0]}")
