"""Canonical bases of higher-level Fock spaces, in exact arithmetic.

Modules
-------
laurent        exact Laurent polynomials over Z
combinatorics  multipartitions, the i-node scan, the charged dominance order
fock           the level-l v-deformed Fock space and its raising-operator kernel
crystal        good nodes, crystal components and their peeling words, export
canonical      bar-invariant canonical bases via peeling and elimination
factorize      sparse decomposition matrices, relative factor extraction, checks
abacus         level-l abacus correspondence and reading sequences
cli            the fockdec command line
reference      independent cross-checks of the above and what only they use:
               the Node toolkit, quantum integers, exact division, the
               dense matrix view and the JSON oracle; no command imports it
"""

__version__ = "0.1.0"
