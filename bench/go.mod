module cmpqos/bench

go 1.22

require cmpqos v0.0.0

replace cmpqos => ../
