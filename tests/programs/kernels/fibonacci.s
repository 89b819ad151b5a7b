# fibonacci: iterative Fibonacci, fib(30) = 832040 in a0.
#
# The tightest possible dependent chain: every iteration's add needs the
# previous one's result.
_start:
    li   t0, 0          # fib(0)
    li   a0, 1          # fib(1)
    li   t2, 29         # iterations
fib:
    add  t3, t0, a0
    mv   t0, a0
    mv   a0, t3
    addi t2, t2, -1
    bnez t2, fib
    ebreak
