module utcq/bench

go 1.24

require utcq v0.0.0

replace utcq => ../
