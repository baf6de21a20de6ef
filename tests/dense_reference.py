"""Independent Kronecker-product reference used only by the tests.

Everything is built from explicit np.kron chains and elementary-matrix
decompositions, with no imports from the package, so agreement between
the two is evidence rather than circularity.  Conventions mirror the
documented ones: site i of L occupies bit i-1 of the basis index (site
1 fastest), bit value 0 is spin up, and spin operators are sigma/2.
"""

import numpy as np

SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def embed_site(op, site, L):
    """Lift a 2x2 operator on 1-based site into the full 2**L space."""
    return np.kron(np.eye(2 ** (L - site)), np.kron(op, np.eye(2 ** (site - 1))))


def embed_pair_matrix(mat4, site, L):
    """Lift a 4x4 operator on sites (site, site+1) into the full space.

    mat4 is indexed |s_site, s_site+1> with the left site major
    (row index 2*s_site + s_site+1).  Decomposed into elementary
    matrices, |a><c| on site and |b><d| on site+1, so no basis
    reordering of mat4 itself is needed.  The two factors act on
    different sites, so their product is one Kronecker chain, built
    on the 2**(site+1) low dimensions and then padded above.
    """
    low = np.zeros((2 ** (site + 1), 2 ** (site + 1)), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    coef = mat4[2 * a + b, 2 * c + d]
                    if coef != 0.0:
                        low += coef * np.kron(
                            _unit(b, d), np.kron(_unit(a, c), np.eye(2 ** (site - 1)))
                        )
    return np.kron(np.eye(2 ** (L - site - 1)), low)


def embed_block_matrix(mat, site, L):
    """Lift a 2**k x 2**k operator on sites site .. site+k-1 into the full space.

    mat is indexed |s_site, ..., s_site+k-1> with the left site major.  Built
    entry by entry from the bit convention: column b of the result holds
    mat[:, local(b)] scattered to the rows that agree with b outside the k
    sites.
    """
    k = int(np.log2(mat.shape[0]))
    idx = np.arange(2**L)
    local = sum(((idx >> (site - 1 + j)) & 1) << (k - 1 - j) for j in range(k))
    rest = idx & ~(((1 << k) - 1) << (site - 1))
    out = np.zeros((2**L, 2**L), dtype=complex)
    for r in range(2**k):
        rows = rest | sum(((r >> (k - 1 - j)) & 1) << (site - 1 + j) for j in range(k))
        out[rows, idx] += mat[r, local]
    return out


def _unit(row, col):
    out = np.zeros((2, 2), dtype=complex)
    out[row, col] = 1.0
    return out


def _sum_bonds(ops, L, J):
    out = np.zeros((2**L, 2**L), dtype=complex)
    for i in range(1, L):
        for op in ops:
            out += J * embed_site(op, i, L) @ embed_site(op, i + 1, L)
    return out


def heisenberg_matrix(L, J=1.0):
    return _sum_bonds([SX, SY, SZ], L, J)


def xxz_staggered_matrix(L, J=1.0, delta=0.0, h_stag=0.0):
    out = _sum_bonds([SX, SY], L, J)
    for i in range(1, L):
        out += J * delta * embed_site(SZ, i, L) @ embed_site(SZ, i + 1, L)
    for i in range(1, L + 1):
        out += h_stag * (-1) ** i * embed_site(SZ, i, L)
    return out


def transverse_ising_matrix(L, J=1.0, h_x=0.0):
    out = _sum_bonds([SZ], L, J)
    for i in range(1, L + 1):
        out += h_x * embed_site(SX, i, L)
    return out


def mixed_ising_matrix(L, J=1.0, h_x=0.0, h_z=0.0):
    out = _sum_bonds([SZ], L, J)
    for i in range(1, L + 1):
        out += h_x * embed_site(SX, i, L) + h_z * embed_site(SZ, i, L)
    return out


def reduced_density_eigs(amps, cut, L):
    """Descending eigenvalues of the reduced density matrix of sites 1..cut."""
    mat = np.asarray(amps).reshape(2 ** (L - cut), 2**cut)
    rho = mat.T @ mat.conj()
    return np.sort(np.linalg.eigvalsh(rho))[::-1]
