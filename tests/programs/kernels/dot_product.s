# dot_product: dot product of two 64-word vectors, a[i] = i + 1 at
# 0x1000 and b[i] = 2 at 0x2000, into a0 (expected 2 * 64 * 65 / 2 = 4160).
#
# Two independent load streams feeding a multiply-accumulate chain.
_start:
    li   t0, 64
    li   t1, 0x1000
    li   t2, 0x2000
    li   t3, 1
    li   t4, 2
init:
    sw   t3, 0(t1)
    sw   t4, 0(t2)
    addi t3, t3, 1
    addi t1, t1, 4
    addi t2, t2, 4
    addi t0, t0, -1
    bnez t0, init

    li   t0, 64
    li   t1, 0x1000
    li   t2, 0x2000
    li   a0, 0
dot:
    lw   t5, 0(t1)
    lw   t6, 0(t2)
    mul  t5, t5, t6
    add  a0, a0, t5
    addi t1, t1, 4
    addi t2, t2, 4
    addi t0, t0, -1
    bnez t0, dot
    ebreak
