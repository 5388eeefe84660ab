from bench import use_checkout_src

use_checkout_src()
