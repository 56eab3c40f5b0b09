"""Fixed reference work for gauging the machine's current speed.

A fresh interpreter imports what nilcx imports and multiplies small dense
matrices of Fractions held in tuples, the kind of work a nilcx job does.
The benchmark times this script between jobs and scales each job's wall
time by it. It must never change: every recorded result is relative to it.
"""

from fractions import Fraction

import dataclasses  # noqa: F401  (import cost, as in nilcx)
import json  # noqa: F401
import re  # noqa: F401

N = 14
m = [tuple(Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(N)) for i in range(N)]
for _ in range(3):
    m = [
        tuple(
            sum((m[i][k] * m[k][j] for k in range(N)), Fraction(0)) / (1 + abs(m[i][j]))
            for j in range(N)
        )
        for i in range(N)
    ]
