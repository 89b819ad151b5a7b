# matmul: 8x8 integer matrix multiply C = A * B with A[i][j] = i + j at
# 0x6000 and B = 2I at 0x8000, so C[i][j] = 2 * (i + j) at 0xa000.
# Loads C[3][5] into a0 (expected 16).
#
# Nested loops, strided loads and dense multiply-accumulate chains.
_start:
    li   s1, 0          # i
init_i:
    li   s2, 0          # j
init_j:
    slli t0, s1, 3      # i * 8
    add  t0, t0, s2     # i * 8 + j
    slli t0, t0, 2      # byte offset
    add  t1, s1, s2     # A[i][j] = i + j
    li   t2, 0x6000
    add  t2, t2, t0
    sw   t1, 0(t2)
    sub  t3, s1, s2     # B[i][j] = (i == j) * 2
    seqz t3, t3
    slli t3, t3, 1
    li   t2, 0x8000
    add  t2, t2, t0
    sw   t3, 0(t2)
    addi s2, s2, 1
    slti t4, s2, 8
    bnez t4, init_j
    addi s1, s1, 1
    slti t4, s1, 8
    bnez t4, init_i

    li   s1, 0          # i
mul_i:
    li   s2, 0          # j
mul_j:
    li   s3, 0          # acc
    li   s4, 0          # k
mul_k:
    slli t0, s1, 3
    add  t0, t0, s4
    slli t0, t0, 2
    li   t2, 0x6000
    add  t2, t2, t0
    lw   t5, 0(t2)      # A[i][k]
    slli t0, s4, 3
    add  t0, t0, s2
    slli t0, t0, 2
    li   t2, 0x8000
    add  t2, t2, t0
    lw   t6, 0(t2)      # B[k][j]
    mul  a1, t5, t6
    add  s3, s3, a1
    addi s4, s4, 1
    slti t4, s4, 8
    bnez t4, mul_k
    slli t0, s1, 3
    add  t0, t0, s2
    slli t0, t0, 2
    li   t2, 0xa000
    add  t2, t2, t0
    sw   s3, 0(t2)      # C[i][j]
    addi s2, s2, 1
    slti t4, s2, 8
    bnez t4, mul_j
    addi s1, s1, 1
    slti t4, s1, 8
    bnez t4, mul_i

    li   t2, 0xa000
    lw   a0, 116(t2)    # C[3][5], at (3 * 8 + 5) * 4
    ebreak
